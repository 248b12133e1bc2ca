/** @file Unit tests for the CIR lexer. */

#include <gtest/gtest.h>

#include "cir/lexer.h"
#include "support/diagnostics.h"

namespace heterogen::cir {
namespace {

std::vector<Token>
lex(const std::string &src)
{
    return tokenize(src);
}

TEST(Lexer, EmptyInputYieldsEnd)
{
    auto toks = lex("");
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_TRUE(toks[0].is(Tok::End));
}

TEST(Lexer, Identifiers)
{
    auto toks = lex("foo _bar baz42");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_TRUE(toks[0].isIdent("foo"));
    EXPECT_TRUE(toks[1].isIdent("_bar"));
    EXPECT_TRUE(toks[2].isIdent("baz42"));
}

TEST(Lexer, QualifiedIdentifierIsOneToken)
{
    auto toks = lex("hls::stream<int>");
    EXPECT_TRUE(toks[0].isIdent("hls::stream"));
    EXPECT_TRUE(toks[1].isPunct("<"));
    EXPECT_TRUE(toks[2].isIdent("int"));
    EXPECT_TRUE(toks[3].isPunct(">"));
}

TEST(Lexer, IntegerLiterals)
{
    auto toks = lex("0 42 0x1F");
    EXPECT_EQ(toks[0].int_value, 0);
    EXPECT_EQ(toks[1].int_value, 42);
    EXPECT_EQ(toks[2].int_value, 31);
}

TEST(Lexer, FloatLiterals)
{
    auto toks = lex("1.5 2e3 4.25f 3.0L .5");
    EXPECT_TRUE(toks[0].is(Tok::FloatLit));
    EXPECT_DOUBLE_EQ(toks[0].float_value, 1.5);
    EXPECT_DOUBLE_EQ(toks[1].float_value, 2000.0);
    EXPECT_DOUBLE_EQ(toks[2].float_value, 4.25);
    EXPECT_FALSE(toks[2].long_double);
    EXPECT_TRUE(toks[3].long_double);
    EXPECT_DOUBLE_EQ(toks[4].float_value, 0.5);
}

TEST(Lexer, OutOfRangeLiteralsAreLocatedFatalErrors)
{
    // Decimal, hex and float literals beyond the host representation
    // must fail as a located FatalError, never a leaked std:: exception.
    for (const char *src :
         {"x = 99999999999999999999999;", "x = 0x123456789abcdef0123;",
          "x = 1e999;"}) {
        try {
            lex(src);
            FAIL() << "expected FatalError for " << src;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("out of range at 1:5"),
                      std::string::npos)
                << e.what();
        }
    }
    // The largest representable values still lex.
    EXPECT_EQ(lex("9223372036854775807")[0].int_value,
              9223372036854775807L);
    EXPECT_EQ(lex("0x7fffffffffffffff")[0].int_value,
              9223372036854775807L);
}

TEST(Lexer, CharLiteralBecomesIntLit)
{
    auto toks = lex("'a' '\\n'");
    EXPECT_TRUE(toks[0].is(Tok::IntLit));
    EXPECT_EQ(toks[0].int_value, 'a');
    EXPECT_EQ(toks[1].int_value, '\n');
}

TEST(Lexer, StringLiteralWithEscapes)
{
    auto toks = lex("\"a\\nb\"");
    ASSERT_TRUE(toks[0].is(Tok::StringLit));
    EXPECT_EQ(toks[0].text, "a\nb");
}

TEST(Lexer, MultiCharOperators)
{
    auto toks = lex("== != <= >= && || -> ++ -- += -= << >>");
    const char *expected[] = {"==", "!=", "<=", ">=", "&&", "||", "->",
                              "++", "--", "+=", "-=", "<<", ">>"};
    for (size_t i = 0; i < std::size(expected); ++i)
        EXPECT_TRUE(toks[i].isPunct(expected[i])) << expected[i];
}

TEST(Lexer, CommentsAreSkipped)
{
    auto toks = lex("a // line comment\nb /* block\ncomment */ c");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_TRUE(toks[0].isIdent("a"));
    EXPECT_TRUE(toks[1].isIdent("b"));
    EXPECT_TRUE(toks[2].isIdent("c"));
}

TEST(Lexer, UnterminatedCommentFails)
{
    EXPECT_THROW(lex("a /* never closed"), FatalError);
}

TEST(Lexer, UnterminatedStringFails)
{
    EXPECT_THROW(lex("\"open"), FatalError);
}

TEST(Lexer, IncludesAreDropped)
{
    auto toks = lex("#include <hls_stream.h>\nint x;");
    EXPECT_TRUE(toks[0].isIdent("int"));
}

TEST(Lexer, HlsPragmaBecomesToken)
{
    auto toks = lex("#pragma HLS unroll factor=4\nint x;");
    ASSERT_TRUE(toks[0].is(Tok::Pragma));
    EXPECT_EQ(toks[0].text, "unroll factor=4");
    EXPECT_TRUE(toks[1].isIdent("int"));
}

TEST(Lexer, NonHlsPragmaIsDropped)
{
    auto toks = lex("#pragma once\nint x;");
    EXPECT_TRUE(toks[0].isIdent("int"));
}

TEST(Lexer, DefineIsRejected)
{
    EXPECT_THROW(lex("#define N 4\n"), FatalError);
}

TEST(Lexer, TracksLineNumbers)
{
    auto toks = lex("a\nb\n  c");
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[2].loc.line, 3);
    EXPECT_GT(toks[2].loc.column, 1);
}

} // namespace
} // namespace heterogen::cir
