#include "core/surgeon.h"

#include <stdexcept>

#include "graph/graph.h"

namespace capr::core {
namespace {

PlanValidator& validator_slot() {
  static PlanValidator validator;
  return validator;
}

}  // namespace

void set_plan_validator(PlanValidator validator) { validator_slot() = std::move(validator); }

const PlanValidator& plan_validator() { return validator_slot(); }

void remove_filters(nn::Model& model, size_t unit_index, const std::vector<int64_t>& filters) {
  if (unit_index >= model.units.size()) {
    throw std::out_of_range("remove_filters: unit index out of range");
  }
  if (filters.empty()) return;

  // The edit is driven by the graph's coupling group, not the hand
  // annotations: the group re-resolves producer/BN/consumers from the
  // current structure, so stale or tampered unit metadata cannot steer
  // the surgeon into an illegal edit.
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  if (!g.ok()) {
    throw std::logic_error("remove_filters: " + g.error()->format());
  }
  const graph::CouplingGroup* grp = g.group_for(model.units[unit_index].conv);
  if (grp == nullptr) {
    throw std::logic_error("remove_filters: unit " + std::to_string(unit_index) +
                           " has no coupling group in the model graph");
  }
  if (grp->residual_constrained) {
    throw std::logic_error("remove_filters: unit " + std::to_string(unit_index) +
                           " ('" + grp->name + "') is residual-constrained");
  }
  nn::PrunableUnit unit = g.materialize(*grp);

  unit.conv->remove_out_channels(filters);
  if (unit.bn != nullptr) unit.bn->remove_channels(filters);
  for (nn::ConsumerRef& c : unit.consumers) {
    if (c.conv != nullptr) {
      c.conv->remove_in_channels(filters);
    } else if (c.linear != nullptr) {
      if (c.spatial <= 0) throw std::logic_error("ConsumerRef: non-positive spatial factor");
      std::vector<int64_t> features;
      features.reserve(filters.size() * static_cast<size_t>(c.spatial));
      for (int64_t f : filters) {
        for (int64_t k = 0; k < c.spatial; ++k) features.push_back(f * c.spatial + k);
      }
      c.linear->remove_in_features(features);
    } else {
      throw std::logic_error("ConsumerRef: neither conv nor linear set");
    }
  }
}

int64_t apply_selection(nn::Model& model, const std::vector<UnitSelection>& selection) {
  if (plan_validator()) plan_validator()(model, selection);
  int64_t removed = 0;
  for (const UnitSelection& sel : selection) {
    remove_filters(model, sel.unit_index, sel.filters);
    removed += static_cast<int64_t>(sel.filters.size());
  }
  return removed;
}

int64_t total_prunable_filters(const nn::Model& model) {
  int64_t n = 0;
  for (const nn::PrunableUnit& u : model.units) n += u.conv->out_channels();
  return n;
}

void load_pruned_checkpoint(nn::Model& model, const std::map<std::string, Tensor>& dict) {
  for (size_t u = 0; u < model.units.size(); ++u) {
    const nn::Conv2d* conv = model.units[u].conv;
    const auto it = dict.find(conv->name() + ".weight");
    if (it == dict.end()) {
      throw std::runtime_error("checkpoint lacks weights for prunable conv '" + conv->name() +
                               "'");
    }
    const int64_t want = it->second.dim(0);
    const int64_t have = conv->out_channels();
    if (want > have) {
      throw std::runtime_error("checkpoint has " + std::to_string(want) + " filters for '" +
                               conv->name() + "', architecture has only " +
                               std::to_string(have));
    }
    if (want < have) {
      // WHICH original filters survived does not matter here: every
      // surviving weight is about to be overwritten from the checkpoint,
      // so shrinking from the tail yields the right shapes.
      std::vector<int64_t> drop;
      drop.reserve(static_cast<size_t>(have - want));
      for (int64_t f = want; f < have; ++f) drop.push_back(f);
      remove_filters(model, u, drop);
    }
  }
  model.load_state_dict(dict);
}

PruneHistory::PruneHistory(const nn::Model& model) {
  kept_.reserve(model.units.size());
  for (const nn::PrunableUnit& u : model.units) {
    std::vector<int64_t> all(static_cast<size_t>(u.conv->out_channels()));
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
    kept_.push_back(std::move(all));
    original_counts_.push_back(u.conv->out_channels());
  }
}

void PruneHistory::apply(const std::vector<UnitSelection>& selection) {
  for (const UnitSelection& sel : selection) {
    if (sel.unit_index >= kept_.size()) {
      throw std::out_of_range("PruneHistory: unit index " + std::to_string(sel.unit_index) +
                              " out of range (history tracks " + std::to_string(kept_.size()) +
                              " units)");
    }
    std::vector<int64_t>& kept = kept_[sel.unit_index];
    // sel.filters must be sorted ascending and duplicate-free — an
    // unsorted or repeated index would silently erase the wrong
    // originals; erase from the back so earlier positions stay valid.
    for (size_t i = 1; i < sel.filters.size(); ++i) {
      if (sel.filters[i] <= sel.filters[i - 1]) {
        throw std::invalid_argument(
            "PruneHistory: unit " + std::to_string(sel.unit_index) +
            ": filter indices must be strictly ascending, got " +
            std::to_string(sel.filters[i - 1]) + " before " + std::to_string(sel.filters[i]));
      }
    }
    for (int64_t f : sel.filters) {
      if (f < 0 || f >= static_cast<int64_t>(kept.size())) {
        throw std::out_of_range("PruneHistory: unit " + std::to_string(sel.unit_index) +
                                ": filter index " + std::to_string(f) + " out of range (" +
                                std::to_string(kept.size()) + " live filters)");
      }
    }
    for (auto it = sel.filters.rbegin(); it != sel.filters.rend(); ++it) {
      kept.erase(kept.begin() + static_cast<int64_t>(*it));
    }
  }
}

std::vector<std::vector<int64_t>> PruneHistory::removed_original() const {
  std::vector<std::vector<int64_t>> out(kept_.size());
  for (size_t u = 0; u < kept_.size(); ++u) {
    size_t k = 0;
    for (int64_t i = 0; i < original_counts_[u]; ++i) {
      if (k < kept_[u].size() && kept_[u][k] == i) {
        ++k;
      } else {
        out[u].push_back(i);
      }
    }
  }
  return out;
}

}  // namespace capr::core
