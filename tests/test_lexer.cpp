// Tokenizer unit tests.
#include <gtest/gtest.h>

#include "prolog/lexer.h"
#include "prolog/program.h"

namespace rapwam {
namespace {

std::vector<Token> lex(const std::string& s) { return Lexer(s).all(); }

TEST(Lexer, SimpleClause) {
  auto t = lex("foo(X, bar).");
  ASSERT_GE(t.size(), 7u);
  EXPECT_EQ(t[0].kind, TokKind::Atom);
  EXPECT_EQ(t[0].text, "foo");
  EXPECT_TRUE(t[0].functor_paren);
  EXPECT_EQ(t[1].text, "(");
  EXPECT_EQ(t[2].kind, TokKind::Var);
  EXPECT_EQ(t[2].text, "X");
  EXPECT_EQ(t[3].text, ",");
  EXPECT_EQ(t[4].text, "bar");
  EXPECT_FALSE(t[4].functor_paren);
  EXPECT_EQ(t[6].kind, TokKind::End);
  EXPECT_EQ(t.back().kind, TokKind::Eof);
}

TEST(Lexer, Integers) {
  auto t = lex("42.");
  EXPECT_EQ(t[0].kind, TokKind::Int);
  EXPECT_EQ(t[0].value, 42);
}

TEST(Lexer, SymbolicAtoms) {
  auto t = lex("X =< Y.");
  EXPECT_EQ(t[1].kind, TokKind::Atom);
  EXPECT_EQ(t[1].text, "=<");
}

TEST(Lexer, NeckOperator) {
  auto t = lex("a :- b.");
  EXPECT_EQ(t[1].text, ":-");
}

TEST(Lexer, PeriodInsideSymbolicVsEnd) {
  auto t = lex("a. b.");
  EXPECT_EQ(t[1].kind, TokKind::End);
  EXPECT_EQ(t[2].text, "b");
}

TEST(Lexer, QuotedAtomWithEscapesAndDoubling) {
  auto t = lex("'hello world'. 'don''t'. 'a\\nb'.");
  EXPECT_EQ(t[0].text, "hello world");
  EXPECT_EQ(t[2].text, "don't");
  EXPECT_EQ(t[4].text, "a\nb");
}

TEST(Lexer, EmptyListAndBraces) {
  auto t = lex("[]. {}.");
  EXPECT_EQ(t[0].kind, TokKind::Atom);
  EXPECT_EQ(t[0].text, "[]");
  EXPECT_EQ(t[2].text, "{}");
}

TEST(Lexer, ListPunctuation) {
  auto t = lex("[a|T].");
  EXPECT_EQ(t[0].text, "[");
  EXPECT_EQ(t[2].text, "|");
  EXPECT_EQ(t[4].text, "]");
}

TEST(Lexer, CommentsSkipped) {
  auto t = lex("a. % line comment\n/* block\ncomment */ b.");
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[2].text, "b");
}

TEST(Lexer, CutAndSemicolon) {
  auto t = lex("! ; x.");
  EXPECT_EQ(t[0].text, "!");
  EXPECT_EQ(t[0].kind, TokKind::Atom);
  EXPECT_EQ(t[1].text, ";");
}

TEST(Lexer, AnonymousAndUnderscoreVars) {
  auto t = lex("_ _Foo.");
  EXPECT_EQ(t[0].kind, TokKind::Var);
  EXPECT_EQ(t[0].text, "_");
  EXPECT_EQ(t[1].text, "_Foo");
}

TEST(Lexer, ParallelAnnotations) {
  auto t = lex("(a & b).");
  EXPECT_EQ(t[2].text, "&");
  EXPECT_EQ(t[2].kind, TokKind::Atom);
}

TEST(Lexer, ErrorsCarryLineInfo) {
  try {
    lex("a.\n\"bad");
    FAIL() << "expected syntax error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Lexer, IntegerLiteralPastTheCellIsAStructuredError) {
  auto t = lex("36028797018963967.");
  EXPECT_EQ(t[0].kind, TokKind::Int);
  EXPECT_EQ(t[0].value, kIntMax);
  // One past the 56-bit Int cell, a literal that fits i64 but used to
  // wrap in the cell (to -1), and one that overflowed i64 itself
  // (signed-overflow UB that read back as 32616936441318098).
  for (const char* lit : {"36028797018963968", "1152921504606846975",
                          "123456789012345678901234567890"}) {
    SCOPED_TRACE(lit);
    try {
      lex(std::string("a.\nX = ") + lit + ".");
      FAIL() << "expected an out-of-range literal error";
    } catch (const Error& e) {
      std::string msg = e.what();
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("integer literal out of range"), std::string::npos) << msg;
    }
  }
}

TEST(Lexer, ConsultRejectsOutOfRangeLiteral) {
  Program p;
  try {
    p.consult("small(36028797018963967).\nbig(1152921504606846975).\n");
    FAIL() << "expected the consult to reject the literal";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("integer literal out of range"), std::string::npos) << msg;
  }
}

TEST(Lexer, UnterminatedQuoteThrows) {
  EXPECT_THROW(lex("'abc"), Error);
}

TEST(Lexer, UnterminatedBlockCommentThrows) {
  EXPECT_THROW(lex("/* abc"), Error);
}

}  // namespace
}  // namespace rapwam
