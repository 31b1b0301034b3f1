#include "ir/qasm.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hh"

namespace qompress {

namespace {

/** Hard ceilings on untrusted numeric input. The parser is the front
 *  door for network traffic (qompressd feeds request bodies straight
 *  into parseQasm), so integer literals and register sizes are bounded
 *  long before they can overflow an int or size an allocation. */
constexpr long long kMaxIntLiteral = 1'000'000'000;
constexpr int kMaxQregSize = 100'000;

/** Expression-nesting ceiling: the recursive-descent evaluator must
 *  turn a pathological `((((...))))` bomb into a FatalError before it
 *  can exhaust the stack (a crash the server cannot map to a 4xx). */
constexpr int kMaxExprDepth = 64;

/** Stack buffer for the NUL-terminated copy strtod needs; a longer
 *  literal (legal, if absurd) falls back to a heap copy. */
constexpr std::size_t kNumberBuffer = 64;

/** @name Character classes
 * The "C"-locale meaning of isspace/isalpha/isalnum/isdigit, without
 * the locale table lookups. @{ */
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

constexpr bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

constexpr bool
isIdentChar(char c)
{
    return isAlpha(c) || isDigit(c) || c == '_';
}
/** @} */

/** One pass over the source with line tracking for error messages.
 *  Tokens are views into the source text, which outlives the lexer. */
class Lexer
{
  public:
    explicit Lexer(std::string_view text)
        : pos_(text.data()), end_(text.data() + text.size())
    {
    }

    int line() const { return line_; }
    bool atEnd() { skipWhitespace(); return pos_ == end_; }

    char
    peek()
    {
        skipWhitespace();
        return pos_ != end_ ? *pos_ : '\0';
    }

    char
    get()
    {
        skipWhitespace();
        QFATAL_IF(pos_ == end_, "qasm line ", line_,
                  ": unexpected end of input");
        return *pos_++; // never a newline: skipWhitespace passed those
    }

    void
    expect(char c)
    {
        const char got = get();
        QFATAL_IF(got != c, "qasm line ", line_, ": expected '", c,
                  "', got '", got, "'");
    }

    /** [A-Za-z_][A-Za-z0-9_]* */
    std::string_view
    identifier()
    {
        skipWhitespace();
        QFATAL_IF(pos_ == end_ || (!isAlpha(*pos_) && *pos_ != '_'),
                  "qasm line ", line_, ": expected identifier");
        const char *start = pos_;
        while (pos_ != end_ && isIdentChar(*pos_))
            ++pos_;
        return {start, static_cast<std::size_t>(pos_ - start)};
    }

    int
    integer()
    {
        skipWhitespace();
        QFATAL_IF(pos_ == end_ || !isDigit(*pos_), "qasm line ", line_,
                  ": expected integer");
        // Accumulate wide and bound every step: `qreg q[99999999999999]`
        // must be a FatalError, not signed-int-overflow UB.
        long long v = 0;
        while (pos_ != end_ && isDigit(*pos_)) {
            v = v * 10 + (*pos_++ - '0');
            QFATAL_IF(v > kMaxIntLiteral, "qasm line ", line_,
                      ": integer literal exceeds ", kMaxIntLiteral);
        }
        return static_cast<int>(v);
    }

    double
    number()
    {
        skipWhitespace();
        const char *end = pos_;
        while (end != end_ &&
               (isDigit(*end) || *end == '.' || *end == 'e' ||
                *end == 'E' ||
                ((*end == '+' || *end == '-') && end != pos_ &&
                 (end[-1] == 'e' || end[-1] == 'E')))) {
            ++end;
        }
        QFATAL_IF(end == pos_, "qasm line ", line_, ": expected number");
        const std::string_view tok(pos_,
                                   static_cast<std::size_t>(end - pos_));
        pos_ = end;
        // strtod wants a terminated string; copy the delimited token.
        char buf[kNumberBuffer];
        std::string heap;
        const char *str = buf;
        if (tok.size() < sizeof buf) {
            std::memcpy(buf, tok.data(), tok.size());
            buf[tok.size()] = '\0';
        } else {
            heap.assign(tok);
            str = heap.c_str();
        }
        // A bare strtod happily parses a prefix ("1.2.3" -> 1.2);
        // demand full-token consumption so malformed literals fail
        // loudly with the line number, and reject over- and underflow
        // ("1e400", "1e-400") as stod does.
        char *stop = nullptr;
        errno = 0;
        const double v = std::strtod(str, &stop);
        QFATAL_IF(stop != str + tok.size() || errno == ERANGE,
                  "qasm line ", line_, ": bad number '", tok, "'");
        return v;
    }

    /** Skip to just past the next ';'. */
    void
    skipStatement()
    {
        while (pos_ != end_ && *pos_ != ';') {
            if (*pos_++ == '\n')
                ++line_;
        }
        if (pos_ != end_)
            ++pos_;
    }

  private:
    void
    skipWhitespace()
    {
        while (pos_ != end_) {
            const char c = *pos_;
            if (isSpace(c)) {
                if (c == '\n')
                    ++line_;
                ++pos_;
            } else if (c == '/' && pos_ + 1 != end_ && pos_[1] == '/') {
                // The comment's newline is left for the next round.
                while (pos_ != end_ && *pos_ != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    const char *pos_;
    const char *end_;
    int line_ = 1;
};

/** Recursive-descent constant-expression evaluator: numbers, pi,
 *  unary minus, + - * /, parentheses. */
class ExprParser
{
  public:
    explicit ExprParser(Lexer &lex) : lex_(lex) {}

    double
    parse()
    {
        return sum();
    }

  private:
    double
    sum()
    {
        double v = product();
        while (lex_.peek() == '+' || lex_.peek() == '-') {
            const char op = lex_.get();
            const double rhs = product();
            v = op == '+' ? v + rhs : v - rhs;
        }
        return v;
    }

    double
    product()
    {
        double v = unary();
        while (lex_.peek() == '*' || lex_.peek() == '/') {
            const char op = lex_.get();
            const double rhs = unary();
            if (op == '/') {
                QFATAL_IF(rhs == 0.0, "qasm line ", lex_.line(),
                          ": division by zero in parameter");
                v /= rhs;
            } else {
                v *= rhs;
            }
        }
        return v;
    }

    double
    unary()
    {
        QFATAL_IF(++depth_ > kMaxExprDepth, "qasm line ", lex_.line(),
                  ": parameter expression nested deeper than ",
                  kMaxExprDepth);
        struct Unwind
        {
            int &d;
            ~Unwind() { --d; }
        } unwind{depth_};
        if (lex_.peek() == '-') {
            lex_.get();
            return -unary();
        }
        if (lex_.peek() == '+') {
            lex_.get();
            return unary();
        }
        if (lex_.peek() == '(') {
            lex_.get();
            const double v = sum();
            lex_.expect(')');
            return v;
        }
        if (isAlpha(lex_.peek())) {
            const std::string_view id = lex_.identifier();
            QFATAL_IF(id != "pi", "qasm line ", lex_.line(),
                      ": unknown constant '", id, "'");
            return M_PI;
        }
        return lex_.number();
    }

    Lexer &lex_;
    int depth_ = 0;
};

/** The gate a statement keyword names, or nullptr for none. */
const GateType *
gateNamed(std::string_view word)
{
    static constexpr std::pair<std::string_view, GateType> kGates[] = {
        {"x", GateType::X},       {"y", GateType::Y},
        {"z", GateType::Z},       {"h", GateType::H},
        {"s", GateType::S},       {"sdg", GateType::Sdg},
        {"t", GateType::T},       {"tdg", GateType::Tdg},
        {"rx", GateType::RX},     {"ry", GateType::RY},
        {"rz", GateType::RZ},     {"cx", GateType::CX},
        {"CX", GateType::CX},     {"cz", GateType::CZ},
        {"swap", GateType::Swap}, {"ccx", GateType::CCX},
        {"toffoli", GateType::CCX},
    };
    for (const auto &[name, type] : kGates) {
        if (name == word)
            return &type;
    }
    return nullptr;
}

} // namespace

Circuit
parseQasm(const std::string &text, const std::string &name)
{
    Lexer lex(text);

    // Header: OPENQASM 2.0; (optional) include "...";
    const std::string_view first = lex.identifier();
    QFATAL_IF(first != "OPENQASM", "qasm line ", lex.line(),
              ": expected OPENQASM header, got '", first, "'");
    const double version = lex.number();
    QFATAL_IF(version != 2.0, "qasm line ", lex.line(),
              ": unsupported OPENQASM version (only 2.0)");
    lex.expect(';');

    // Gates append straight into the circuit, built at the qreg.
    std::string_view qreg_name;
    std::optional<Circuit> circuit;

    while (!lex.atEnd()) {
        const std::string_view word = lex.identifier();
        if (word == "include" || word == "creg" || word == "barrier" ||
            word == "measure" || word == "reset") {
            lex.skipStatement();
            continue;
        }
        if (word == "qreg") {
            QFATAL_IF(circuit, "qasm line ", lex.line(),
                      ": multiple qreg declarations are not supported");
            qreg_name = lex.identifier();
            lex.expect('[');
            const int num_qubits = lex.integer();
            lex.expect(']');
            lex.expect(';');
            QFATAL_IF(num_qubits < 1, "qasm line ", lex.line(),
                      ": empty qreg");
            QFATAL_IF(num_qubits > kMaxQregSize, "qasm line ",
                      lex.line(), ": qreg size ", num_qubits,
                      " exceeds the supported maximum ", kMaxQregSize);
            circuit.emplace(num_qubits, name);
            continue;
        }

        // Gate application.
        const GateType *type = gateNamed(word);
        QFATAL_IF(!type, "qasm line ", lex.line(),
                  ": unsupported statement or gate '", word, "'");
        QFATAL_IF(!circuit, "qasm line ", lex.line(),
                  ": gate before qreg declaration");
        Gate g;
        g.type = *type;
        if (lex.peek() == '(') {
            QFATAL_IF(!gateHasParam(g.type), "qasm line ", lex.line(),
                      ": gate '", word, "' takes no parameter");
            lex.expect('(');
            ExprParser expr(lex);
            g.param = expr.parse();
            lex.expect(')');
        } else {
            QFATAL_IF(gateHasParam(g.type), "qasm line ", lex.line(),
                      ": gate '", word, "' requires a parameter");
        }
        const int arity = gateArity(g.type);
        g.qubits.reserve(static_cast<std::size_t>(arity));
        for (int i = 0; i < arity; ++i) {
            if (i > 0)
                lex.expect(',');
            const std::string_view reg = lex.identifier();
            QFATAL_IF(reg != qreg_name, "qasm line ", lex.line(),
                      ": unknown register '", reg, "'");
            lex.expect('[');
            const int q = lex.integer();
            lex.expect(']');
            QFATAL_IF(q >= circuit->numQubits(), "qasm line ", lex.line(),
                      ": qubit index ", q, " out of range");
            // A gate may not name the same qubit twice (`cx q[0],q[0]`
            // is not unitary over distinct wires); catching it here
            // keeps invalid gates out of every downstream pass.
            for (const QubitId prev : g.qubits) {
                QFATAL_IF(prev == q, "qasm line ", lex.line(),
                          ": duplicate qubit operand q[", q, "] in '",
                          word, "'");
            }
            g.qubits.push_back(q);
        }
        lex.expect(';');
        circuit->add(std::move(g));
    }

    QFATAL_IF(!circuit, "qasm: no qreg declaration found");
    return std::move(*circuit);
}

Circuit
parseQasmFile(const std::string &path)
{
    std::ifstream in(path);
    QFATAL_IF(!in, "cannot open qasm file '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    // Derive a circuit name from the file stem.
    std::string name = path;
    if (const auto slash = name.find_last_of('/');
        slash != std::string::npos) {
        name = name.substr(slash + 1);
    }
    if (const auto dot = name.find_last_of('.');
        dot != std::string::npos) {
        name = name.substr(0, dot);
    }
    return parseQasm(ss.str(), name);
}

} // namespace qompress
