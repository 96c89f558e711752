/**
 * @file
 * Mixed-integer linear programming model representation.
 *
 * TAPA-CS formulates both floorplanning levels (paper eq. 1-4) as
 * ILPs. The paper solves them with Gurobi or python-MIP; this module
 * provides the equivalent in-repo model builder, consumed by the
 * simplex / branch-and-bound solvers in this directory.
 *
 * Conventions: variables are referenced by dense integer ids handed
 * out by Model::addVar; objectives are always *minimized* (negate the
 * coefficients to maximize); constraints compare a linear expression
 * against a constant.
 */

#ifndef TAPACS_ILP_MODEL_HH
#define TAPACS_ILP_MODEL_HH

#include <limits>
#include <string>
#include <vector>

namespace tapacs::ilp
{

/** Dense id of a decision variable within one Model. */
using VarId = int;

/** Kind of a decision variable. */
enum class VarKind
{
    Continuous,
    Integer,
    Binary,
};

/** One decision variable: bounds, integrality, debug name. */
struct Variable
{
    std::string name;
    VarKind kind = VarKind::Continuous;
    double lower = 0.0;
    double upper = std::numeric_limits<double>::infinity();
};

/** One term of a linear expression. */
struct LinTerm
{
    VarId var = -1;
    double coeff = 0.0;
};

/**
 * Sparse linear expression sum(coeff_i * var_i) + constant.
 *
 * Duplicate variable mentions are allowed while building and merged
 * by normalize().
 */
class LinExpr
{
  public:
    LinExpr() = default;

    /** Implicit constant expression. */
    LinExpr(double constant) : constant_(constant) {}

    /** Add coeff * var to the expression. */
    LinExpr &add(VarId var, double coeff);

    /** Merge duplicate terms and drop zero coefficients. */
    void normalize();

    const std::vector<LinTerm> &terms() const { return terms_; }
    double constant() const { return constant_; }

    /** Evaluate given a full assignment of variable values. */
    double evaluate(const std::vector<double> &values) const;

  private:
    std::vector<LinTerm> terms_;
    double constant_ = 0.0;
};

/** Comparison sense of a constraint. */
enum class Sense
{
    LessEqual,
    GreaterEqual,
    Equal,
};

/** One linear constraint: expr (sense) rhs. */
struct Constraint
{
    std::string name;
    LinExpr expr;
    Sense sense = Sense::LessEqual;
    double rhs = 0.0;
};

/** Outcome classification of a solve. */
enum class SolveStatus
{
    Optimal,      ///< proven optimal within tolerance
    Feasible,     ///< integer-feasible but optimality not proven
    Infeasible,   ///< no feasible point exists
    Unbounded,    ///< objective unbounded below
    LimitReached, ///< hit the node budget or deadline with no incumbent
};

/** Human-readable name of a SolveStatus. */
const char *toString(SolveStatus status);

/** Result of solving a Model. */
struct Solution
{
    SolveStatus status = SolveStatus::LimitReached;
    double objective = 0.0;
    std::vector<double> values;

    bool hasSolution() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }

    /** Value of a variable, rounded if it is integral-kind. */
    double value(VarId v) const { return values.at(v); }

    /** Convenience: value rounded to nearest integer. */
    long round(VarId v) const;
};

/**
 * A mixed-integer linear program. Build with addVar/addConstraint/
 * setObjective, then hand to a solver.
 */
class Model
{
  public:
    /** Add a variable; returns its id. */
    VarId addVar(VarKind kind, double lower, double upper,
                 std::string name = "");

    /** Add a continuous variable with bounds [lower, inf). */
    VarId addContinuous(double lower = 0.0, std::string name = "");

    /** Add a binary {0,1} variable. */
    VarId addBinary(std::string name = "");

    /** Add a constraint; returns its index. */
    int addConstraint(LinExpr expr, Sense sense, double rhs,
                      std::string name = "");

    /** Set the (minimized) objective. */
    void setObjective(LinExpr objective);

    int numVars() const { return static_cast<int>(vars_.size()); }
    int numConstraints() const
    {
        return static_cast<int>(constraints_.size());
    }

    const Variable &var(VarId v) const { return vars_.at(v); }
    const std::vector<Variable> &vars() const { return vars_; }
    const std::vector<Constraint> &constraints() const
    {
        return constraints_;
    }
    const LinExpr &objective() const { return objective_; }

    /** Ids of all integral (Integer or Binary) variables. */
    std::vector<VarId> integerVars() const;

    /**
     * Check that an assignment satisfies bounds, integrality and all
     * constraints within tolerance.
     *
     * @param values one value per variable.
     * @param tol absolute feasibility tolerance.
     * @retval true if the assignment is feasible.
     */
    bool isFeasible(const std::vector<double> &values,
                    double tol = 1e-6) const;

  private:
    std::vector<Variable> vars_;
    std::vector<Constraint> constraints_;
    LinExpr objective_;
};

} // namespace tapacs::ilp

#endif // TAPACS_ILP_MODEL_HH
