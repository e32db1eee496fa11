#include "system/dds.h"

#include <cassert>
#include <stdexcept>

namespace amalgam {

int DdsSystem::AddState(std::string name, bool initial, bool accepting) {
  state_names_.push_back(std::move(name));
  initial_.push_back(initial);
  accepting_.push_back(accepting);
  return num_states() - 1;
}

int DdsSystem::AddRegister(std::string name) {
  if (vars_built_) {
    throw std::logic_error(
        "all registers must be added before guards are parsed");
  }
  register_names_.push_back(std::move(name));
  return num_registers() - 1;
}

void DdsSystem::EnsureVarTable() {
  if (vars_built_) return;
  // Ids 0..k-1: old values; k..2k-1: new values (see header).
  for (const std::string& r : register_names_) vars_.Register(r + "_old");
  for (const std::string& r : register_names_) vars_.Register(r + "_new");
  vars_built_ = true;
}

void DdsSystem::AddRule(int from, int to, FormulaRef guard,
                        std::shared_ptr<const std::string> printed) {
  assert(from >= 0 && from < num_states());
  assert(to >= 0 && to < num_states());
  EnsureVarTable();
  if (printed == nullptr) printed = PrintGuard(*guard);
  rules_.push_back(
      TransitionRule{from, to, std::move(guard), std::move(printed)});
}

void DdsSystem::AddRule(int from, int to, const std::string& guard_text) {
  EnsureVarTable();
  AddRule(from, to, ParseFormula(guard_text, *schema_, &vars_));
}

FormulaRef DdsSystem::ParseGuard(const std::string& guard_text) {
  EnsureVarTable();
  return ParseFormula(guard_text, *schema_, &vars_);
}

std::shared_ptr<const std::string> DdsSystem::PrintGuard(
    const Formula& guard) const {
  return std::make_shared<const std::string>(guard.ToString(*schema_));
}

bool DdsSystem::AllGuardsQuantifierFree() const {
  for (const TransitionRule& rule : rules_) {
    if (!rule.guard->IsQuantifierFree()) return false;
  }
  return true;
}

DdsSystem EliminateExistentials(const DdsSystem& system) {
  const int k = system.num_registers();
  // Strip each guard with temporary fresh ids, recording how many witnesses
  // each rule needs; auxiliary registers are shared across rules.
  struct Stripped {
    FormulaRef guard;
    std::vector<int> temp_ids;
  };
  std::vector<Stripped> stripped;
  int max_aux = 0;
  int next_temp = 2 * k;
  for (const TransitionRule& rule : system.rules()) {
    // Quantified ids inside guards may overlap across rules; MaxVar keeps
    // temp ids clear of everything already used.
    next_temp = std::max(next_temp, rule.guard->MaxVar() + 1);
  }
  for (const TransitionRule& rule : system.rules()) {
    Stripped s;
    s.guard = StripPositiveExistentials(rule.guard, next_temp, &s.temp_ids);
    next_temp += static_cast<int>(s.temp_ids.size());
    max_aux = std::max(max_aux, static_cast<int>(s.temp_ids.size()));
    stripped.push_back(std::move(s));
  }

  DdsSystem result(system.schema_ref());
  for (int q = 0; q < system.num_states(); ++q) {
    result.AddState(system.state_name(q), system.is_initial(q),
                    system.is_accepting(q));
  }
  for (int r = 0; r < k; ++r) result.AddRegister(system.register_name(r));
  for (int a = 0; a < max_aux; ++a) {
    result.AddRegister("_aux" + std::to_string(a));
  }
  const int k2 = k + max_aux;

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const TransitionRule& rule = system.rules()[i];
    // Rename: new-value ids shift from k+j to k2+j; witness temp ids map to
    // the new values of the auxiliary registers.
    const int max_var = std::max(stripped[i].guard->MaxVar(), next_temp - 1);
    std::vector<int> subst(max_var + 1, -1);
    for (int j = 0; j < k; ++j) subst[k + j] = k2 + j;
    for (std::size_t a = 0; a < stripped[i].temp_ids.size(); ++a) {
      subst[stripped[i].temp_ids[a]] = k2 + k + static_cast<int>(a);
    }
    result.AddRule(rule.from, rule.to,
                   RenameVars(stripped[i].guard, subst));
  }
  return result;
}

}  // namespace amalgam
