#include "report/json.h"

#include <gtest/gtest.h>

namespace capr::report {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nnext"), "line\\nnext");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonValueTest, Scalars) {
  EXPECT_EQ(JsonValue::null().dump(), "null");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue::number(static_cast<int64_t>(42)).dump(), "42");
  EXPECT_EQ(JsonValue::number(0.5).dump(), "0.5");
  EXPECT_EQ(JsonValue::string("x").dump(), "\"x\"");
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonValueTest, Composition) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("vgg16"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(static_cast<int64_t>(1)));
  arr.push_back(JsonValue::number(static_cast<int64_t>(2)));
  obj.set("iters", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\"name\":\"vgg16\",\"iters\":[1,2]}");
}

TEST(JsonValueTest, KindErrors) {
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", JsonValue::null()), std::logic_error);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push_back(JsonValue::null()), std::logic_error);
}

TEST(JsonSerializersTest, ModelSimSerialises) {
  hw::ModelSim sim;
  sim.total_cycles = 1000;
  sim.total_macs = 5000;
  sim.layers.push_back({"conv0", "gemm", 5000, 1000, 0.5, 64, 32, 1.5});
  const std::string out = to_json(sim).dump();
  EXPECT_NE(out.find("\"total_cycles\":1000"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"conv0\""), std::string::npos);
  EXPECT_NE(out.find("\"utilization\":0.5"), std::string::npos);
}

}  // namespace
}  // namespace capr::report
