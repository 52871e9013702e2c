#include "analysis/checked.h"

#include "analysis/analyzer.h"
#include "core/surgeon.h"
#include "nn/trainer.h"

namespace capr::analysis {
namespace {

bool g_enabled = false;

}  // namespace

void enable_checked_mode() {
  core::set_plan_validator([](nn::Model& model, const std::vector<core::UnitSelection>& plan) {
    require_ok(analyze_plan(model, plan));
  });
  nn::set_model_validator([](nn::Model& model) { require_ok(analyze_model(model)); });
  g_enabled = true;
}

void disable_checked_mode() {
  core::set_plan_validator({});
  nn::set_model_validator({});
  g_enabled = false;
}

bool checked_mode_enabled() { return g_enabled; }

}  // namespace capr::analysis
