/**
 * @file
 * PinDigest: a CRC-64 over the raw bytes of a sequence of values, for
 * tests that pin a solver's output by digest instead of by golden
 * file. Doubles enter by bit pattern, so any change in a sum's order
 * shows.
 */

#ifndef TAPACS_TESTS_PIN_DIGEST_HH
#define TAPACS_TESTS_PIN_DIGEST_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/crc64.hh"
#include "common/logging.hh"

namespace tapacs
{

class PinDigest
{
  public:
    template <typename T>
    void
    add(const T &x)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        crc_ = crc64(&x, sizeof x, crc_);
    }

    template <typename T>
    void
    add(const std::vector<T> &xs)
    {
        add(static_cast<std::int64_t>(xs.size()));
        if (!xs.empty())
            crc_ = crc64(xs.data(), xs.size() * sizeof(T), crc_);
    }

    std::string
    hex() const
    {
        return strprintf("%016llx",
                         static_cast<unsigned long long>(crc_));
    }

  private:
    std::uint64_t crc_ = 0;
};

} // namespace tapacs

#endif // TAPACS_TESTS_PIN_DIGEST_HH
