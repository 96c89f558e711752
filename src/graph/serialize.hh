/**
 * @file
 * Task-graph serialization.
 *
 * A plain-text, line-oriented format so designs can be saved,
 * versioned and exchanged between tools (and so the test suite can
 * assert exact round-trips). One record per line:
 *
 *   graph <name>
 *   vertex <name> lut ff bram dsp uram ops opc rd wr width ch blocks
 *   edge <src-index> <dst-index> widthBits totalBytes depth initTokens
 *
 * Grammar (the one C++ stream extraction reads in the C locale):
 *  - Lines end at '\n'; a missing final newline is fine. A line that
 *    is empty or has '#' in column 0 is skipped. Any other line,
 *    whitespace-only or indented '#' included, is a record.
 *  - Fields are separated by runs of ' ', '\t', '\v', '\f' or '\r'
 *    (so CRLF line ends parse). A name is any other run of bytes.
 *  - A number is read from the field's start up to the first byte it
 *    cannot use, and the next field starts there: "1-2" is two
 *    fields. A vertex's width, ch and blocks are ints, and so is
 *    every edge field but totalBytes; all other numbers are doubles.
 *  - An int is [+-]?[0-9]+ and must fit in 32 bits.
 *  - A double is [+-]? digits with at most one '.' and at least one
 *    digit, then optionally [eE][+-]?[0-9]+. So "inf" and "nan" are
 *    rejected, "0x1p3" reads as 0 followed by the field "x1p3", and
 *    "1e" fails because every double is followed by a number and
 *    "e" is not one. A value past the largest double is rejected;
 *    one below the smallest subnormal reads as a zero of its sign.
 *  - Fields after the last one a record needs are ignored.
 *
 * serializeTaskGraph writes doubles as printf's "%.17g" (C locale),
 * so every finite double reads back to the same bits, and names as
 * C strings (up to a NUL byte). A graph whose names hold no
 * whitespace or NUL bytes round-trips exactly.
 */

#ifndef TAPACS_GRAPH_SERIALIZE_HH
#define TAPACS_GRAPH_SERIALIZE_HH

#include <string>

#include "common/status.hh"
#include "graph/task_graph.hh"

namespace tapacs
{

/** Render the graph in the line format above. */
std::string serializeTaskGraph(const TaskGraph &g);

/**
 * Parse a graph from the line format without ever killing the
 * process: malformed input returns InvalidInput with a line number
 * and leaves @p out untouched. This is the entry point the compile
 * service uses for graph= requests.
 */
Status tryParseTaskGraph(const std::string &text, TaskGraph *out);

/**
 * Parse a graph back from the line format.
 *
 * Calls fatal() with a line number on malformed input (tool-main
 * convenience wrapper around tryParseTaskGraph).
 */
TaskGraph parseTaskGraph(const std::string &text);

} // namespace tapacs

#endif // TAPACS_GRAPH_SERIALIZE_HH
