#include "ilp/model.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"

namespace tapacs::ilp
{

LinExpr &
LinExpr::add(VarId var, double coeff)
{
    tapacs_assert(var >= 0);
    if (coeff != 0.0)
        terms_.push_back({var, coeff});
    return *this;
}

void
LinExpr::normalize()
{
    std::map<VarId, double> merged;
    for (const auto &t : terms_)
        merged[t.var] += t.coeff;
    terms_.clear();
    for (const auto &[var, coeff] : merged) {
        if (std::abs(coeff) > 0.0)
            terms_.push_back({var, coeff});
    }
}

double
LinExpr::evaluate(const std::vector<double> &values) const
{
    double acc = constant_;
    for (const auto &t : terms_)
        acc += t.coeff * values.at(t.var);
    return acc;
}

const char *
toString(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Optimal: return "optimal";
      case SolveStatus::Feasible: return "feasible";
      case SolveStatus::Infeasible: return "infeasible";
      case SolveStatus::Unbounded: return "unbounded";
      case SolveStatus::LimitReached: return "limit-reached";
    }
    return "unknown";
}

long
Solution::round(VarId v) const
{
    return std::lround(values.at(v));
}

VarId
Model::addVar(VarKind kind, double lower, double upper, std::string name)
{
    tapacs_assert(lower <= upper);
    Variable var;
    var.name = std::move(name);
    var.kind = kind;
    var.lower = lower;
    var.upper = upper;
    vars_.push_back(std::move(var));
    return static_cast<VarId>(vars_.size()) - 1;
}

VarId
Model::addContinuous(double lower, std::string name)
{
    return addVar(VarKind::Continuous, lower,
                  std::numeric_limits<double>::infinity(),
                  std::move(name));
}

VarId
Model::addBinary(std::string name)
{
    return addVar(VarKind::Binary, 0.0, 1.0, std::move(name));
}

int
Model::addConstraint(LinExpr expr, Sense sense, double rhs,
                     std::string name)
{
    expr.normalize();
    Constraint c;
    c.name = std::move(name);
    c.expr = std::move(expr);
    c.sense = sense;
    c.rhs = rhs;
    constraints_.push_back(std::move(c));
    return static_cast<int>(constraints_.size()) - 1;
}

void
Model::setObjective(LinExpr objective)
{
    objective.normalize();
    objective_ = std::move(objective);
}

std::vector<VarId>
Model::integerVars() const
{
    std::vector<VarId> out;
    for (VarId v = 0; v < numVars(); ++v) {
        if (vars_[v].kind != VarKind::Continuous)
            out.push_back(v);
    }
    return out;
}

bool
Model::isFeasible(const std::vector<double> &values, double tol) const
{
    if (values.size() != vars_.size())
        return false;
    for (VarId v = 0; v < numVars(); ++v) {
        const Variable &var = vars_[v];
        const double x = values[v];
        if (x < var.lower - tol || x > var.upper + tol)
            return false;
        if (var.kind != VarKind::Continuous &&
            std::abs(x - std::round(x)) > tol) {
            return false;
        }
    }
    for (const auto &c : constraints_) {
        const double lhs = c.expr.evaluate(values);
        switch (c.sense) {
          case Sense::LessEqual:
            if (lhs > c.rhs + tol)
                return false;
            break;
          case Sense::GreaterEqual:
            if (lhs < c.rhs - tol)
                return false;
            break;
          case Sense::Equal:
            if (std::abs(lhs - c.rhs) > tol)
                return false;
            break;
        }
    }
    return true;
}

} // namespace tapacs::ilp
