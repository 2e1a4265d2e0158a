#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace mte::sim {
namespace {

TEST(Timeline, RendersCellsAndGaps) {
  Timeline tl;
  tl.put("input", 0, "A0");
  tl.put("input", 2, "B0");
  tl.put("output", 1, "A0");
  const std::string text = tl.render();
  EXPECT_NE(text.find("input"), std::string::npos);
  EXPECT_NE(text.find("output"), std::string::npos);
  EXPECT_NE(text.find("A0"), std::string::npos);
  EXPECT_NE(text.find("B0"), std::string::npos);
  EXPECT_NE(text.find("."), std::string::npos);  // gap marker
}

TEST(Timeline, RowOrderFollowsDeclaration) {
  Timeline tl;
  tl.declare_row("second");
  tl.declare_row("first");
  tl.put("first", 0, "x");
  tl.put("second", 0, "y");
  const std::string text = tl.render();
  EXPECT_LT(text.find("second"), text.find("first"));
}

TEST(Timeline, EmptyRenders) {
  Timeline tl;
  EXPECT_EQ(tl.render(), "(empty timeline)\n");
}

TEST(Timeline, RangeRender) {
  Timeline tl;
  tl.put("r", 0, "a");
  tl.put("r", 5, "b");
  const std::string text = tl.render(4, 6);
  EXPECT_EQ(text.find("\"a\""), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
}

}  // namespace
}  // namespace mte::sim
