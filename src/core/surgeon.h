// Structural filter removal.
//
// Removing output filter c of a prunable conv requires coordinated edits:
//   - drop row c of the conv weight (and bias),
//   - drop channel c of the following BatchNorm,
//   - drop input channel c of every consumer conv, or the feature block
//     [c*spatial, (c+1)*spatial) of every consumer linear.
// The PrunableUnit metadata attached by the model builders encodes these
// couplings; the surgeon just executes them and keeps the model's
// invariants (a forward pass stays shape-legal after every operation).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "nn/model.h"

namespace capr::core {

/// Checked-mode hook: certifies a plan structurally BEFORE any mutation,
/// throwing to reject it. Installed by analysis::enable_checked_mode()
/// (the static analyzer lives above core in the layering, so core only
/// knows the hook). Strategy semantics (per-iteration caps, floor) are
/// certified by strategy::run_strategy, which knows them.
using PlanValidator = std::function<void(nn::Model&, const std::vector<UnitSelection>&)>;

/// Installs (or, with an empty function, clears) the global validator.
void set_plan_validator(PlanValidator validator);

/// The installed validator; empty when checked mode is off.
const PlanValidator& plan_validator();

/// Removes the selected filters from one unit. Throws on invalid indices
/// or if the removal would empty the layer. This is the raw primitive —
/// it does NOT consult the plan validator (checkpoint replay and
/// rollback re-apply already-certified history through it).
void remove_filters(nn::Model& model, size_t unit_index, const std::vector<int64_t>& filters);

/// Applies a whole selection (all units). Returns number of filters
/// removed. In checked mode the whole plan is certified before the
/// first mutation, so a rejected plan leaves the model untouched.
int64_t apply_selection(nn::Model& model, const std::vector<UnitSelection>& selection);

/// Total number of filters across all prunable units.
int64_t total_prunable_filters(const nn::Model& model);

/// Loads a (possibly pruned) checkpoint into a freshly built model:
/// shrinks every prunable unit until its filter count matches the conv
/// weights in `dict` (the replay idiom of examples/resnet_pruning.cpp),
/// then load_state_dict's the whole map. Throws std::runtime_error when
/// the checkpoint names layers the architecture lacks or carries more
/// filters than the architecture has. Shared by capr-analyze and the
/// serving runtime's InferenceSession::from_checkpoint.
void load_pruned_checkpoint(nn::Model& model, const std::map<std::string, Tensor>& dict);

/// Replayable pruning history.
///
/// Surgery renumbers filters: after removing filter 2 of a 6-filter
/// layer, the old filter 3 becomes index 2. PruneHistory tracks, per
/// unit, which ORIGINAL indices are still present, so that
///  - selections expressed in *current* indices can be recorded
///    (`apply`), and
///  - the cumulative removal can be replayed onto a FRESH unpruned model
///    (`removed_original`), which is how strategy::run_strategy rolls
///    back an unrecoverable iteration.
class PruneHistory {
 public:
  explicit PruneHistory(const nn::Model& model);

  /// Records a selection (current-index space) as removed.
  /// Throws std::out_of_range if an index exceeds the live filter count.
  void apply(const std::vector<UnitSelection>& selection);

  /// Removed original indices per unit (complement of the kept sets).
  std::vector<std::vector<int64_t>> removed_original() const;

  /// Kept original indices of one unit (sorted ascending).
  const std::vector<int64_t>& kept(size_t unit) const { return kept_.at(unit); }

  /// Snapshot/restore for transactional use.
  std::vector<std::vector<int64_t>> snapshot() const { return kept_; }
  void restore(std::vector<std::vector<int64_t>> snap) { kept_ = std::move(snap); }

 private:
  std::vector<std::vector<int64_t>> kept_;
  std::vector<int64_t> original_counts_;
};

}  // namespace capr::core
