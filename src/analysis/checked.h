// Checked mode: fail fast on analyzer rejection.
//
// Enabling checked mode installs the static analyzer behind the hooks
// the lower layers expose:
//
//   - core::apply_selection certifies every plan structurally before
//     the first mutation (core::set_plan_validator);
//   - nn::train / nn::evaluate certify the model graph before spending
//     any compute (nn::set_model_validator).
//
// A rejection throws AnalysisError (a std::logic_error) carrying the
// full diagnostic report; the model is left untouched. Checked mode is
// process-global and OFF by default — enable it at program start, or
// scope it with CheckedModeGuard in tests.
#pragma once

namespace capr::analysis {

void enable_checked_mode();
void disable_checked_mode();
bool checked_mode_enabled();

/// RAII scope for tests: enables on construction, disables on exit.
class CheckedModeGuard {
 public:
  CheckedModeGuard() { enable_checked_mode(); }
  ~CheckedModeGuard() { disable_checked_mode(); }
  CheckedModeGuard(const CheckedModeGuard&) = delete;
  CheckedModeGuard& operator=(const CheckedModeGuard&) = delete;
};

}  // namespace capr::analysis
