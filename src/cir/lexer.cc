#include "cir/lexer.h"

#include <cctype>
#include <stdexcept>

#include "support/strings.h"

namespace heterogen::cir {

bool
Token::isPunct(const std::string &spelling) const
{
    return kind == Tok::Punct && text == spelling;
}

bool
Token::isIdent(const std::string &name) const
{
    return kind == Tok::Ident && text == name;
}

namespace {

/** Incremental scanner over a source buffer. */
class Scanner
{
  public:
    explicit Scanner(const std::string &src) : src_(src) {}

    std::vector<Token>
    run()
    {
        std::vector<Token> out;
        for (;;) {
            skipWhitespaceAndComments();
            if (atEnd()) {
                out.push_back(make(Tok::End));
                return out;
            }
            if (peek() == '#') {
                Token t;
                if (lexPreprocessor(t))
                    out.push_back(t);
                continue;
            }
            out.push_back(lexToken());
        }
    }

  private:
    bool atEnd() const { return pos_ >= src_.size(); }
    char peek(size_t ahead = 0) const
    {
        return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
    }

    char
    advance()
    {
        char c = src_[pos_++];
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }

    SourceLoc here() const { return SourceLoc{line_, col_}; }

    Token
    make(Tok kind, std::string text = {})
    {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.loc = here();
        return t;
    }

    void
    skipWhitespaceAndComments()
    {
        for (;;) {
            while (!atEnd() &&
                   std::isspace(static_cast<unsigned char>(peek()))) {
                advance();
            }
            if (peek() == '/' && peek(1) == '/') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else if (peek() == '/' && peek(1) == '*') {
                SourceLoc open = here();
                advance();
                advance();
                while (!(peek() == '*' && peek(1) == '/')) {
                    if (atEnd())
                        fatal("unterminated comment at ", open.str());
                    advance();
                }
                advance();
                advance();
            } else {
                return;
            }
        }
    }

    /** Returns true if a token (pragma) was produced. */
    bool
    lexPreprocessor(Token &out)
    {
        SourceLoc loc = here();
        std::string text;
        while (!atEnd() && peek() != '\n')
            text += advance();
        text = trim(text);
        if (startsWith(text, "#include"))
            return false;
        if (startsWith(text, "#pragma")) {
            std::string rest = trim(text.substr(7));
            if (startsWith(rest, "HLS") || startsWith(rest, "hls")) {
                out = Token{};
                out.kind = Tok::Pragma;
                out.text = trim(rest.substr(3));
                out.loc = loc;
                return true;
            }
            // Non-HLS pragmas are ignored, mirroring HLS compilers.
            return false;
        }
        if (startsWith(text, "#define"))
            fatal("#define is not supported by the CIR frontend (",
                  loc.str(), "); use a const global instead");
        fatal("unsupported preprocessor directive at ", loc.str(), ": ",
              text);
    }

    Token
    lexToken()
    {
        SourceLoc loc = here();
        char c = peek();
        Token t;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            t = lexIdent();
        } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                   (c == '.' &&
                    std::isdigit(static_cast<unsigned char>(peek(1))))) {
            t = lexNumber();
        } else if (c == '"') {
            t = lexString();
        } else if (c == '\'') {
            t = lexCharLit();
        } else {
            t = lexPunct();
        }
        t.loc = loc;
        return t;
    }

    Token
    lexIdent()
    {
        std::string text;
        while (!atEnd() &&
               (std::isalnum(static_cast<unsigned char>(peek())) ||
                peek() == '_')) {
            text += advance();
        }
        // Allow "hls::stream" / "std::..." qualified names as one ident.
        while (peek() == ':' && peek(1) == ':') {
            text += advance();
            text += advance();
            while (!atEnd() &&
                   (std::isalnum(static_cast<unsigned char>(peek())) ||
                    peek() == '_')) {
                text += advance();
            }
        }
        Token t;
        t.kind = Tok::Ident;
        t.text = std::move(text);
        return t;
    }

    /** Run a std::sto* conversion of a numeric literal, turning an
     * out-of-range value into a located FatalError. */
    template <typename Convert>
    static auto
    convert(const std::string &text, SourceLoc loc, Convert conv)
    {
        try {
            return conv();
        } catch (const std::out_of_range &) {
            fatal("numeric literal '", text, "' out of range at ",
                  loc.str());
        }
    }

    Token
    lexNumber()
    {
        SourceLoc loc = here();
        std::string text;
        bool is_float = false;
        if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
            text += advance();
            text += advance();
            while (std::isxdigit(static_cast<unsigned char>(peek())))
                text += advance();
            Token t;
            t.kind = Tok::IntLit;
            t.int_value = convert(text, loc, [&] {
                return std::stol(text, nullptr, 16);
            });
            t.text = text;
            return t;
        }
        while (std::isdigit(static_cast<unsigned char>(peek())))
            text += advance();
        if (peek() == '.') {
            is_float = true;
            text += advance();
            while (std::isdigit(static_cast<unsigned char>(peek())))
                text += advance();
        }
        if (peek() == 'e' || peek() == 'E') {
            is_float = true;
            text += advance();
            if (peek() == '+' || peek() == '-')
                text += advance();
            while (std::isdigit(static_cast<unsigned char>(peek())))
                text += advance();
        }
        bool long_double = false;
        while (std::isalpha(static_cast<unsigned char>(peek()))) {
            char suffix = advance();
            if (suffix == 'f' || suffix == 'F')
                is_float = true;
            if (suffix == 'l' || suffix == 'L')
                long_double = is_float;
        }
        Token t;
        if (is_float) {
            t.kind = Tok::FloatLit;
            t.float_value =
                convert(text, loc, [&] { return std::stod(text); });
            t.long_double = long_double;
        } else {
            t.kind = Tok::IntLit;
            t.int_value =
                convert(text, loc, [&] { return std::stol(text); });
        }
        t.text = text;
        return t;
    }

    Token
    lexString()
    {
        SourceLoc open = here();
        advance(); // opening quote
        std::string text;
        while (peek() != '"') {
            if (atEnd())
                fatal("unterminated string literal at ", open.str());
            char c = advance();
            if (c == '\\' && !atEnd()) {
                char esc = advance();
                switch (esc) {
                  case 'n': text += '\n'; break;
                  case 't': text += '\t'; break;
                  case '\\': text += '\\'; break;
                  case '"': text += '"'; break;
                  default: text += esc; break;
                }
            } else {
                text += c;
            }
        }
        advance(); // closing quote
        Token t;
        t.kind = Tok::StringLit;
        t.text = std::move(text);
        return t;
    }

    Token
    lexCharLit()
    {
        SourceLoc open = here();
        advance(); // opening quote
        if (atEnd())
            fatal("unterminated char literal at ", open.str());
        char c = advance();
        if (c == '\\' && !atEnd()) {
            char esc = advance();
            switch (esc) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case '0': c = '\0'; break;
              default: c = esc; break;
            }
        }
        if (peek() != '\'')
            fatal("unterminated char literal at ", open.str());
        advance();
        Token t;
        t.kind = Tok::IntLit;
        t.int_value = static_cast<long>(c);
        t.text = std::string(1, c);
        return t;
    }

    Token
    lexPunct()
    {
        static const char *three[] = {"<<=", ">>="};
        static const char *two[] = {
            "==", "!=", "<=", ">=", "&&", "||", "->", "++", "--",
            "+=", "-=", "*=", "/=", "%=", "<<", ">>", "::",
        };
        for (const char *p : three) {
            if (peek() == p[0] && peek(1) == p[1] && peek(2) == p[2]) {
                advance();
                advance();
                advance();
                return makePunct(p);
            }
        }
        for (const char *p : two) {
            if (peek() == p[0] && peek(1) == p[1]) {
                advance();
                advance();
                return makePunct(p);
            }
        }
        char c = advance();
        return makePunct(std::string(1, c));
    }

    Token
    makePunct(std::string spelling)
    {
        Token t;
        t.kind = Tok::Punct;
        t.text = std::move(spelling);
        return t;
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
};

} // namespace

std::vector<Token>
tokenize(const std::string &source)
{
    return Scanner(source).run();
}

} // namespace heterogen::cir
