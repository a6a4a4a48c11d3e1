// Shared tokenizer for the three command dialects of the provider: the SQL
// subset, the SHAPE data-shaping language, and DMX. All of them use the same
// lexical conventions: case-insensitive keywords, [bracket-quoted]
// identifiers (']' escaped by doubling), 'single-quoted' strings, numbers,
// and "--" / "//" line comments.

#ifndef DMX_COMMON_TOKENIZER_H_
#define DMX_COMMON_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/source_span.h"
#include "common/status.h"
#include "common/string_util.h"

namespace dmx {

/// Lexical category of a token.
enum class TokenKind {
  kIdentifier,  ///< Bare word or [bracketed] identifier.
  kString,      ///< 'quoted literal' ('' escapes a quote).
  kLong,        ///< Integer literal.
  kDouble,      ///< Floating literal.
  kPunct,       ///< Operator / punctuation: ( ) , . = <> <= >= < > + - * / $
  kEnd,         ///< End of input sentinel.
};

/// \brief One lexeme with its source position (for error messages).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;        ///< Identifier/punct spelling or string contents.
  int64_t long_value = 0;  ///< Set for kLong.
  double double_value = 0; ///< Set for kDouble.
  size_t offset = 0;       ///< Byte offset in the command text.
  bool quoted = false;     ///< Identifier came from [brackets].

  bool IsKeyword(std::string_view kw) const {
    return kind == TokenKind::kIdentifier && !quoted && EqualsCi(text, kw);
  }
  bool IsPunct(std::string_view p) const {
    return kind == TokenKind::kPunct && text == p;
  }
  bool IsEnd() const { return kind == TokenKind::kEnd; }

  /// Source range of the token (re-adds the quoting stripped by the lexer).
  SourceSpan span() const {
    size_t length = text.size();
    if (kind == TokenKind::kString ||
        (kind == TokenKind::kIdentifier && quoted)) {
      length += 2;
    }
    return SourceSpan{offset, length == 0 ? 1 : length};
  }
};

/// Lexes a full command string. Fails on unterminated strings/brackets and
/// unknown characters.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// \brief Cursor over a token vector with the match/expect helpers every
/// recursive-descent parser in the repository builds on.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t lookahead = 0) const {
    size_t i = pos_ + lookahead;
    return i < tokens_.size() ? tokens_[i] : end_;
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  /// The last token Next() consumed (the end token before any).
  const Token& Previous() const { return pos_ > 0 ? tokens_[pos_ - 1] : end_; }
  bool AtEnd() const { return Peek().IsEnd(); }
  size_t position() const { return pos_; }
  void Rewind(size_t position) { pos_ = position; }

  /// Consumes the keyword if it is next; returns whether it did.
  bool MatchKeyword(std::string_view kw);

  /// Consumes a sequence of keywords ("ORDER","BY") atomically.
  bool MatchKeywords(std::initializer_list<std::string_view> kws);

  /// Consumes the punctuation token if it is next.
  bool MatchPunct(std::string_view p);

  /// Errors (ParseError) unless the keyword is next; consumes it.
  Status ExpectKeyword(std::string_view kw);

  /// Errors unless the punctuation is next; consumes it.
  Status ExpectPunct(std::string_view p);

  /// Consumes an identifier (bare or bracketed) and returns its text.
  Result<std::string> ExpectIdentifier(std::string_view what = "identifier");

  /// ParseError annotated with the offending token.
  Status ErrorHere(std::string_view message) const;

  /// Maximum grammar recursion depth (parenthesized expressions, nested
  /// function calls, subqueries). Deep enough for any sane statement, small
  /// enough that the recursive-descent parsers cannot overflow the stack —
  /// fuzzed inputs like "((((..." fail cleanly instead of crashing.
  static constexpr int kMaxRecursionDepth = 100;

  /// \brief RAII depth frame for the recursive-descent parsers. Every
  /// self-recursive production opens one and checks it:
  ///
  ///   TokenStream::RecursionScope depth(tokens);
  ///   DMX_RETURN_IF_ERROR(depth.Check());
  ///
  /// Check() reports kInvalidArgument (with the current token's offset as
  /// the source span) once the nesting exceeds kMaxRecursionDepth.
  class RecursionScope {
   public:
    explicit RecursionScope(TokenStream* stream) : stream_(stream) {
      ++stream_->depth_;
    }
    ~RecursionScope() { --stream_->depth_; }
    RecursionScope(const RecursionScope&) = delete;
    RecursionScope& operator=(const RecursionScope&) = delete;

    Status Check() const;

   private:
    TokenStream* stream_;
  };

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Live RecursionScope frames.
  Token end_;
};

}  // namespace dmx

#endif  // DMX_COMMON_TOKENIZER_H_
