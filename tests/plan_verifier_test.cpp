// ExecutionPlan verifier: every healthy plan lints clean, and every
// class of corrupted IR is rejected with its specific, stable E-PLAN-*
// code. Corruptions are built by copying a real compiled plan and
// tampering through PlanTestAccess — the verifier must catch them
// without crashing (it is the last line of defence before a bad plan
// would serve traffic, so it can assume nothing).
#include "compile/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "compile/plan.h"
#include "graph/graph.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"

namespace capr::compile {
namespace {

models::BuildConfig small_cfg() {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  cfg.width_mult = 0.5f;
  return cfg;
}

/// BN fold off: every conv and BatchNorm keeps its own step (only the
/// exact epilogue fusion merges steps), which keeps each corruption
/// surgical.
CompileOptions unfolded() {
  CompileOptions opts;
  opts.fold_batchnorm = false;
  return opts;
}

struct Compiled {
  nn::Model model;
  graph::ModuleGraph graph;
  ExecutionPlan plan;  // mutable copy of the compiled plan, for tampering
};

Compiled compiled(const std::string& arch, const CompileOptions& opts) {
  Compiled c{models::make_model(arch, small_cfg()), {}, {}};
  c.graph = graph::ModuleGraph::build(c.model);
  const CompileResult result = compile(c.graph, opts);
  EXPECT_NE(result.plan, nullptr);
  if (result.plan) c.plan = *result.plan;
  return c;
}

/// The first conv step of `c` whose recorded lowering is `lowering`.
Step* conv_with(Compiled& c, ConvLowering lowering) {
  for (Step& s : PlanTestAccess::steps(c.plan)) {
    if (s.kind == StepKind::kConv && s.lowering == lowering) return &s;
  }
  return nullptr;
}

// ---- healthy plans ---------------------------------------------------------

TEST(PlanVerifierTest, AllGoldenArchsLintClean) {
  const std::vector<std::string> archs = {"vgg11",    "vgg13",    "vgg16",
                                          "vgg19",    "resnet20", "resnet32",
                                          "resnet44", "resnet56", "tiny"};
  for (const std::string& arch : archs) {
    for (const CompileOptions& opts : {CompileOptions{}, unfolded()}) {
      Compiled c = compiled(arch, opts);
      const PlanLint lint = lint_plan(c.plan, c.graph);
      EXPECT_TRUE(lint.ok()) << arch << ":\n" << lint.to_string();
    }
  }
}

// Dropout elision is the one legal aliasing: the plan skips the node and
// the verifier accepts the slot forwarding around it.
TEST(PlanVerifierTest, DropoutElisionLintsClean) {
  nn::Model model;
  model.arch = "custom-dropout";
  model.input_shape = {3, 8, 8};
  model.num_classes = 4;
  model.net = std::make_unique<nn::Sequential>();
  model.net->add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, /*bias=*/true));
  model.net->add(std::make_unique<nn::Dropout>(0.5f));
  model.net->add(std::make_unique<nn::Flatten>());
  model.net->add(std::make_unique<nn::Linear>(4 * 8 * 8, 4));

  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  const CompileResult result = compile(g, unfolded());
  ASSERT_NE(result.plan, nullptr);
  ASSERT_EQ(result.plan->steps().size(), 3u);  // dropout elided
  const PlanLint lint = lint_plan(*result.plan, g);
  EXPECT_TRUE(lint.ok()) << lint.to_string();
}

// ---- corrupted-plan classes ------------------------------------------------

TEST(PlanVerifierTest, UseBeforeDefIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_GE(steps.size(), 2u);
  // An early step reads the slot only the final step writes.
  steps[0].in0 = steps.back().out;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kUseBeforeDef)) << lint.to_string();
}

TEST(PlanVerifierTest, MultiWriterIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_GE(steps.size(), 2u);
  steps[1].out = steps[0].out;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kMultiWriter)) << lint.to_string();
}

TEST(PlanVerifierTest, BadAliasIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_GE(steps.size(), 3u);
  // steps[2] consumes steps[1]'s output; retarget it onto steps[0]'s —
  // a defined slot (so def-before-use passes) holding the wrong value.
  ASSERT_EQ(steps[2].in0, steps[1].out);
  steps[2].in0 = steps[0].out;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kBadAlias)) << lint.to_string();
}

TEST(PlanVerifierTest, ReorderedStepsAreRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_GE(steps.size(), 2u);
  ASSERT_EQ(steps[1].in0, steps[0].out);  // adjacent dependent pair
  std::swap(steps[0], steps[1]);
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kStepOrder)) << lint.to_string();
}

TEST(PlanVerifierTest, UndersizedScratchIsRejected) {
  Compiled c = compiled("tiny", CompileOptions{});
  ASSERT_GT(c.plan.scratch_floats(), 0);
  PlanTestAccess::scratch_floats(c.plan) = c.plan.scratch_floats() - 1;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kScratchUndersized)) << lint.to_string();
}

TEST(PlanVerifierTest, WrongPanelShapeIsRejected) {
  Compiled c = compiled("tiny", CompileOptions{});
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  Step* conv = nullptr;
  for (Step& s : steps) {
    if (s.kind == StepKind::kConv) conv = &s;
  }
  ASSERT_NE(conv, nullptr);
  conv->packed_w.depth += 1;  // strips no longer match the weight layout
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
}

// Every conv step runs on its strips, so a conv that lost them (or never
// had them) is rejected rather than served.
TEST(PlanVerifierTest, MissingConvStripsAreRejected) {
  for (const ConvLowering lowering : {ConvLowering::kPanels, ConvLowering::kDirect}) {
    Compiled c = compiled("vgg11", CompileOptions{});
    Step* conv = conv_with(c, lowering);
    ASSERT_NE(conv, nullptr) << "no " << to_string(lowering) << " conv in vgg11";
    conv->packed_w = PackedA{};
    const PlanLint lint = lint_plan(c.plan, c.graph);
    ASSERT_FALSE(lint.ok()) << to_string(lowering);
    EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
  }
}

// A panels conv with an offset map would take the direct path.
TEST(PlanVerifierTest, OffsetMapOnAPanelsConvIsRejected) {
  Compiled c = compiled("vgg11", CompileOptions{});
  Step* panels = conv_with(c, ConvLowering::kPanels);
  const Step* direct = conv_with(c, ConvLowering::kDirect);
  ASSERT_NE(panels, nullptr);
  ASSERT_NE(direct, nullptr);
  panels->direct = direct->direct;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
}

TEST(PlanVerifierTest, WrongLinearPanelShapeIsRejected) {
  Compiled c = compiled("tiny", CompileOptions{});
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  Step* linear = nullptr;
  for (Step& s : steps) {
    if (s.kind == StepKind::kLinear && s.packed_in.finite) linear = &s;
  }
  ASSERT_NE(linear, nullptr);
  linear->packed_in.panels.resize(linear->packed_in.panels.size() - 1);
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
}

// vgg11 at 8 px ends in 2x2 convs (4 columns: no direct lowering) after
// 8x8 and 4x4 ones (direct), so it carries both choices.
TEST(PlanVerifierTest, LoweringChoiceDisagreeingWithEligibilityIsRejected) {
  for (const ConvLowering recorded : {ConvLowering::kPanels, ConvLowering::kDirect}) {
    Compiled c = compiled("vgg11", CompileOptions{});
    Step* conv = conv_with(c, recorded);
    ASSERT_NE(conv, nullptr) << "no " << to_string(recorded) << " conv in vgg11";
    ASSERT_TRUE(lint_plan(c.plan, c.graph).ok());
    if (recorded == ConvLowering::kPanels) {
      conv->lowering = ConvLowering::kDirect;  // ineligible geometry
    } else {
      conv->lowering = ConvLowering::kPanels;  // eligible geometry
    }
    const PlanLint lint = lint_plan(c.plan, c.graph);
    ASSERT_FALSE(lint.ok()) << to_string(recorded);
    EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
  }
}

TEST(PlanVerifierTest, WrongOffsetTableSizeIsRejected) {
  Compiled c = compiled("tiny", CompileOptions{});
  Step* conv = conv_with(c, ConvLowering::kDirect);
  ASSERT_NE(conv, nullptr);
  conv->direct.off.pop_back();  // one column-matrix row without a tap
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
}

TEST(PlanVerifierTest, WrongOffsetMapIsRejected) {
  Compiled c = compiled("tiny", CompileOptions{});
  Step* conv = conv_with(c, ConvLowering::kDirect);
  ASSERT_NE(conv, nullptr);
  conv->direct.off.back() += 1;  // the last tap's runs would end past the planes
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kPanelShape)) << lint.to_string();
}

// The declared pre-size is slot 0's largest B operand (direct planes
// here, every tiny conv is direct) plus slot 1's largest column matrix.
TEST(PlanVerifierTest, ScratchDemandCountsThePlaneBuffer) {
  Compiled c = compiled("tiny", CompileOptions{});
  int64_t planes = 0, col = 0;
  for (const Step& s : c.plan.steps()) {
    if (s.kind != StepKind::kConv) continue;
    ASSERT_EQ(s.lowering, ConvLowering::kDirect);
    planes = std::max(planes, direct_plane_floats(s.geom));
    col = std::max(col, s.geom.col_rows() * s.geom.col_cols());
  }
  EXPECT_EQ(c.plan.scratch_floats(), planes + col);
  EXPECT_EQ(conv_scratch_floats(c.plan.steps()), planes + col);
}

TEST(PlanVerifierTest, SpuriousFallbackIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  Step* conv = nullptr;
  for (Step& s : steps) {
    if (s.kind == StepKind::kConv) conv = &s;
  }
  ASSERT_NE(conv, nullptr);
  // Claim an interpreted fallback on a node without interventions.
  conv->kind = StepKind::kInterpreted;
  conv->layer = c.graph.node(conv->nodes.front()).layer;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kSpuriousFallback)) << lint.to_string();
}

// The converse direction: a node whose layer NEEDS the fallback (active
// interventions, applied after compilation) must not be lowered natively.
TEST(PlanVerifierTest, MissingFallbackIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  ASSERT_FALSE(c.model.units.empty());
  nn::Layer* point = c.model.units[0].score_point;
  ASSERT_NE(point, nullptr);
  point->instrument().channel_scale.assign(
      static_cast<size_t>(c.model.units[0].conv->out_channels()), 0.5f);
  const PlanLint lint = lint_plan(c.plan, c.graph);
  point->instrument().channel_scale.clear();
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kSpuriousFallback)) << lint.to_string();
}

TEST(PlanVerifierTest, BadOutputSlotIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  PlanTestAccess::output_slot(c.plan) = c.plan.slot_count() + 5;
  PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kBadOutput)) << lint.to_string();

  // A slot that exists but is never written is equally rejected.
  PlanTestAccess::num_slots(c.plan) = c.plan.slot_count() + 6;
  lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kBadOutput)) << lint.to_string();
}

TEST(PlanVerifierTest, WrongOutShapeIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_FALSE(steps.empty());
  ASSERT_FALSE(steps[0].out_shape.empty());
  steps[0].out_shape[0] += 1;
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kShapeDisagree)) << lint.to_string();
}

// Deleting a step elides a node that is NOT an inference identity — the
// aliasing-legality rule dropout elision relies on must reject it.
TEST(PlanVerifierTest, ElidingANonIdentityNodeIsRejected) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_GE(steps.size(), 2u);
  steps.erase(steps.begin());
  const PlanLint lint = lint_plan(c.plan, c.graph);
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kBadAlias)) << lint.to_string();
}

// Garbage node ids must become findings, never crashes.
TEST(PlanVerifierTest, CorruptNodeIdsDoNotCrash) {
  Compiled c = compiled("tiny", unfolded());
  std::vector<Step>& steps = PlanTestAccess::steps(c.plan);
  ASSERT_FALSE(steps.empty());
  steps[0].nodes = {graph::NodeId{9999}};
  PlanLint lint;
  ASSERT_NO_THROW(lint = lint_plan(c.plan, c.graph));
  ASSERT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(PlanDiagCode::kSlotRange)) << lint.to_string();
}

// ---- stable codes and wiring ----------------------------------------------

TEST(PlanVerifierTest, CodeStringsAreStable) {
  EXPECT_STREQ(to_string(PlanDiagCode::kSlotRange), "E-PLAN-SLOT");
  EXPECT_STREQ(to_string(PlanDiagCode::kUseBeforeDef), "E-PLAN-USE-BEFORE-DEF");
  EXPECT_STREQ(to_string(PlanDiagCode::kMultiWriter), "E-PLAN-MULTI-WRITER");
  EXPECT_STREQ(to_string(PlanDiagCode::kBadAlias), "E-PLAN-ALIAS");
  EXPECT_STREQ(to_string(PlanDiagCode::kStepOrder), "E-PLAN-ORDER");
  EXPECT_STREQ(to_string(PlanDiagCode::kShapeDisagree), "E-PLAN-SHAPE");
  EXPECT_STREQ(to_string(PlanDiagCode::kScratchUndersized), "E-PLAN-SCRATCH");
  EXPECT_STREQ(to_string(PlanDiagCode::kPanelShape), "E-PLAN-PANEL");
  EXPECT_STREQ(to_string(PlanDiagCode::kSpuriousFallback), "E-PLAN-FALLBACK");
  EXPECT_STREQ(to_string(PlanDiagCode::kBadOutput), "E-PLAN-OUTPUT");
}

TEST(PlanVerifierTest, DiagFormatNamesStepAndNode) {
  PlanDiag d;
  d.code = PlanDiagCode::kStepOrder;
  d.step = 4;
  d.node = 7;
  d.message = "example";
  EXPECT_EQ(d.format(), "[E-PLAN-ORDER] step 4, node 7: example");
}

// compile() runs the verifier on every plan it emits; a clean compile
// therefore implies an empty lint report.
TEST(PlanVerifierTest, CompileNeverReturnsARejectedPlan) {
  const nn::Model model = models::make_model("resnet20", small_cfg());
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  const CompileResult result = compile(g, CompileOptions{});
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.lint.empty());
  EXPECT_TRUE(lint_plan(*result.plan, g).ok());
}

}  // namespace
}  // namespace capr::compile
