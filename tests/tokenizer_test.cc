#include "common/tokenizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

namespace dmx {
namespace {

std::vector<Token> MustTokenize(const std::string& text) {
  auto result = Tokenize(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : std::vector<Token>{};
}

TEST(TokenizerTest, BasicKinds) {
  auto tokens = MustTokenize("SELECT x, 42, 2.5, 'text' FROM [My Table]");
  ASSERT_EQ(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_TRUE(tokens[2].IsPunct(","));
  EXPECT_EQ(tokens[3].long_value, 42);
  EXPECT_EQ(tokens[5].double_value, 2.5);
  EXPECT_EQ(tokens[7].kind, TokenKind::kString);
  EXPECT_EQ(tokens[7].text, "text");
  EXPECT_TRUE(tokens[8].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[9].quoted);
  EXPECT_EQ(tokens[9].text, "My Table");
}

TEST(TokenizerTest, BracketEscaping) {
  auto tokens = MustTokenize("[a]]b]");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].text, "a]b");
  // Quoted identifiers never match keywords.
  EXPECT_FALSE(MustTokenize("[SELECT]")[0].IsKeyword("SELECT"));
}

TEST(TokenizerTest, StringEscaping) {
  auto tokens = MustTokenize("'it''s'");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(TokenizerTest, NumberForms) {
  auto tokens = MustTokenize("1 1.5 .5 1e3 2E-2 7.");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kLong);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDouble);
  EXPECT_EQ(tokens[2].double_value, 0.5);
  EXPECT_EQ(tokens[3].double_value, 1000.0);
  EXPECT_EQ(tokens[4].double_value, 0.02);
  EXPECT_EQ(tokens[5].kind, TokenKind::kDouble);
}

TEST(TokenizerTest, Comments) {
  auto tokens = MustTokenize("a -- comment\nb // another\nc");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(TokenizerTest, MultiCharPunctuation) {
  auto tokens = MustTokenize("<= >= <> != < > = $");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_TRUE(tokens[0].IsPunct("<="));
  EXPECT_TRUE(tokens[2].IsPunct("<>"));
  EXPECT_TRUE(tokens[7].IsPunct("$"));
}

TEST(TokenizerTest, Errors) {
  EXPECT_TRUE(Tokenize("[unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("a ? b").status().IsParseError());
}

TEST(TokenStreamTest, MatchAndExpect) {
  TokenStream ts(MustTokenize("ORDER BY name DESC"));
  EXPECT_FALSE(ts.MatchKeywords({"GROUP", "BY"}));
  EXPECT_TRUE(ts.MatchKeywords({"ORDER", "BY"}));
  auto name = ts.ExpectIdentifier();
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "name");
  EXPECT_TRUE(ts.MatchKeyword("desc"));
  EXPECT_TRUE(ts.AtEnd());
}

TEST(TokenStreamTest, RewindRestoresPosition) {
  TokenStream ts(MustTokenize("a b c"));
  size_t save = ts.position();
  ts.Next();
  ts.Next();
  ts.Rewind(save);
  EXPECT_EQ(ts.Peek().text, "a");
}

TEST(TokenStreamTest, ErrorsNameTheOffendingToken) {
  TokenStream ts(MustTokenize("FROM"));
  Status s = ts.ExpectKeyword("SELECT");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("FROM"), std::string::npos);
  ts.Next();
  Status end = ts.ExpectPunct(")");
  EXPECT_NE(end.message().find("end of input"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hardened edge cases (fuzzer-found surface): unterminated constructs,
// numeric overflow, block comments. Every malformed input must produce a
// ParseError whose message carries the offset of the offending construct.
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BlockComments) {
  auto tokens = MustTokenize("SELECT /* anything\n * spanning lines */ x");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].text, "x");
  // "/*/" does not self-close; "/**/" is an empty comment.
  EXPECT_EQ(MustTokenize("a /**/ b").size(), 2u);
  // A '*' immediately before the terminator stays a comment.
  EXPECT_EQ(MustTokenize("a /* stars **/ b").size(), 2u);
}

struct BadLexCase {
  const char* name;
  const char* input;
  const char* message_contains;  ///< Must appear in the ParseError message.
  const char* offset_token;      ///< "offset <N>" expected in the message.
};

// gtest prints a parameter into its test's ctest name; without this it
// dumps the struct's bytes, pointers included, and the name changes run to
// run with address-space randomization.
void PrintTo(const BadLexCase& c, std::ostream* os) { *os << c.name; }

class TokenizerBadInputTest : public ::testing::TestWithParam<BadLexCase> {};

TEST_P(TokenizerBadInputTest, ProducesParseErrorWithSpan) {
  const BadLexCase& c = GetParam();
  auto result = Tokenize(c.input);
  ASSERT_FALSE(result.ok()) << "input: " << c.input;
  EXPECT_TRUE(result.status().IsParseError()) << result.status().ToString();
  const std::string& message = result.status().message();
  EXPECT_NE(message.find(c.message_contains), std::string::npos) << message;
  EXPECT_NE(message.find(std::string("offset ") + c.offset_token),
            std::string::npos)
      << message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TokenizerBadInputTest,
    ::testing::Values(
        BadLexCase{"UnterminatedString", "SELECT 'abc", "unterminated string",
                   "7"},
        BadLexCase{"UnterminatedStringWithEscape", "x 'it''s", "unterminated",
                   "2"},
        BadLexCase{"UnterminatedBracket", "SELECT [My Col", "unterminated",
                   "7"},
        BadLexCase{"UnterminatedBracketEscape", "[a]]", "unterminated", "0"},
        BadLexCase{"UnterminatedBlockComment", "SELECT /* no end",
                   "unterminated block comment", "7"},
        BadLexCase{"BlockCommentAlmostClosed", "a /* b *", "unterminated",
                   "2"},
        BadLexCase{"LongOverflow", "SELECT 9223372036854775808",
                   "overflows a LONG", "7"},
        BadLexCase{"LongOverflowHuge",
                   "SELECT 99999999999999999999999999999999",
                   "overflows a LONG", "7"},
        BadLexCase{"DoubleOverflow", "x 1e400000", "overflows a DOUBLE", "2"},
        BadLexCase{"UnknownCharacter", "SELECT \x01", "unexpected character",
                   "7"}),
    [](const ::testing::TestParamInfo<BadLexCase>& info) {
      return info.param.name;
    });

TEST(TokenizerTest, NumericBoundariesStillLex) {
  // INT64_MAX lexes; INT64_MIN is '-' followed by 9223372036854775808 and
  // overflows as a bare literal — callers negate smaller literals instead.
  auto max = MustTokenize("9223372036854775807");
  ASSERT_EQ(max.size(), 1u);
  EXPECT_EQ(max[0].long_value, 9223372036854775807LL);
  // Denormal underflow rounds, it does not error.
  auto tiny = MustTokenize("1e-400");
  ASSERT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny[0].kind, TokenKind::kDouble);
}

TEST(TokenStreamTest, RecursionScopeCapsDepth) {
  TokenStream ts(MustTokenize("x"));
  std::vector<std::unique_ptr<TokenStream::RecursionScope>> frames;
  for (int i = 0; i < TokenStream::kMaxRecursionDepth; ++i) {
    frames.push_back(std::make_unique<TokenStream::RecursionScope>(&ts));
    EXPECT_TRUE(frames.back()->Check().ok()) << "depth " << i;
  }
  TokenStream::RecursionScope over(&ts);
  Status deep = over.Check();
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep.message().find("nests more than"), std::string::npos);
  // Frames unwind: popping back under the cap is OK again.
  frames.pop_back();
  EXPECT_TRUE(over.Check().ok());
}

}  // namespace
}  // namespace dmx
