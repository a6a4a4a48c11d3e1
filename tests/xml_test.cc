// XML library: writer/parser behaviour, escaping, error handling, and a
// generated round-trip property sweep.

#include "pmml/xml.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"

namespace dmx::xml {
namespace {

TEST(XmlTest, BuildAndPrint) {
  Element root("PMML");
  root.SetAttr("version", std::string("1.0"));
  Element* header = root.AddChild("Header");
  header->SetAttr("n", static_cast<int64_t>(3));
  header->SetAttr("x", 2.5);
  root.AddChild("Body")->set_text("hello");
  std::string text = root.ToString();
  EXPECT_NE(text.find("<PMML version=\"1.0\">"), std::string::npos);
  EXPECT_NE(text.find("<Header n=\"3\" x=\"2.5\"/>"), std::string::npos);
  EXPECT_NE(text.find("<Body>hello</Body>"), std::string::npos);
}

TEST(XmlTest, ParseBasicDocument) {
  auto root = Parse(R"(<?xml version="1.0"?>
    <a x="1" y="two">
      <b/>
      <c>text body</c>
      <b z="3.5"/>
    </a>)");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->name(), "a");
  EXPECT_EQ(*(*root)->GetAttr("y"), "two");
  EXPECT_EQ(*(*root)->GetLongAttr("x"), 1);
  EXPECT_EQ((*root)->FindChildren("b").size(), 2u);
  EXPECT_EQ((*root)->FindChild("c")->text(), "text body");
  EXPECT_EQ(*(*root)->FindChildren("b")[1]->GetDoubleAttr("z"), 3.5);
  EXPECT_EQ((*root)->FindChild("nope"), nullptr);
  EXPECT_TRUE((*root)->GetAttr("nope").status().IsNotFound());
}

TEST(XmlTest, EscapingRoundTrips) {
  Element root("t");
  root.SetAttr("a", std::string("<&>\"'"));
  root.AddChild("c")->set_text("a < b && c > 'd'");
  auto parsed = Parse(root.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*(*parsed)->GetAttr("a"), "<&>\"'");
  EXPECT_EQ((*parsed)->FindChild("c")->text(), "a < b && c > 'd'");
}

TEST(XmlTest, ParseErrors) {
  EXPECT_FALSE(Parse("<a>").ok());                  // unterminated
  EXPECT_FALSE(Parse("<a></b>").ok());              // mismatched close
  EXPECT_FALSE(Parse("<a x=1/>").ok());             // unquoted attribute
  EXPECT_FALSE(Parse("<a/><b/>").ok());             // two roots
  EXPECT_FALSE(Parse("plain text").ok());           // no element
  EXPECT_FALSE(Parse("<a x=\"1>").ok());            // unterminated attr value
}

TEST(XmlTest, AttributeOverwrite) {
  Element e("x");
  e.SetAttr("k", std::string("a"));
  e.SetAttr("k", std::string("b"));
  EXPECT_EQ(*e.GetAttr("k"), "b");
}

// Property: random trees survive print -> parse -> print exactly.
class XmlRoundTrip : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(Rng* rng, Element* node, int depth) {
  int attrs = static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < attrs; ++i) {
    node->SetAttr(StrCat("a", std::to_string(i)),
                  StrCat("v<&>'", std::to_string(rng->Uniform(1000))));
  }
  if (depth >= 4) return;
  int children = static_cast<int>(rng->Uniform(4));
  if (children == 0 && rng->Chance(0.5)) {
    node->set_text(
        StrCat("text & <content> ", std::to_string(rng->Uniform(100))));
    return;
  }
  for (int i = 0; i < children; ++i) {
    BuildRandomTree(rng, node->AddChild(StrCat("n", std::to_string(i))),
                    depth + 1);
  }
}

TEST_P(XmlRoundTrip, PrintParsePrintFixpoint) {
  Rng rng(GetParam());
  Element root("root");
  BuildRandomTree(&rng, &root, 0);
  std::string once = root.ToString();
  auto parsed = Parse(once);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->ToString(), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dmx::xml
