/**
 * @file
 * Abstract syntax tree for the C intermediate representation.
 *
 * The tree is owned via std::unique_ptr edges; every node supports deep
 * clone() so repair transforms can copy whole candidate programs cheaply
 * relative to HLS compile cost. Sema assigns every node a unique id and
 * every two-way branch a branch id used for coverage.
 */

#ifndef HETEROGEN_CIR_AST_H
#define HETEROGEN_CIR_AST_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cir/type.h"
#include "support/diagnostics.h"

namespace heterogen::cir {

class Expr;
class Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/** Discriminator for Expr. */
enum class ExprKind
{
    IntLit,
    FloatLit,
    StringLit,
    Ident,
    Unary,
    Binary,
    Assign,
    Call,
    MethodCall,
    Index,
    Member,
    Cast,
    Ternary,
    SizeofType,
    StructLit,
};

/** Unary operators. */
enum class UnaryOp
{
    Neg,
    Not,
    BitNot,
    Deref,
    AddrOf,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
};

/** Binary (non-assigning) operators. */
enum class BinaryOp
{
    Add, Sub, Mul, Div, Mod,
    Lt, Gt, Le, Ge, Eq, Ne,
    LogAnd, LogOr,
    BitAnd, BitOr, BitXor,
    Shl, Shr,
};

/** Assignment operators. */
enum class AssignOp { Plain, Add, Sub, Mul, Div, Mod };

/** Base class for all expression nodes. */
class Expr
{
  public:
    virtual ~Expr() = default;

    ExprKind kind() const { return kind_; }
    virtual ExprPtr clone() const = 0;

    SourceLoc loc;
    /** Unique id assigned by sema (0 before sema runs). */
    int node_id = 0;

  protected:
    explicit Expr(ExprKind kind) : kind_(kind) {}

  private:
    ExprKind kind_;
};

/** Integer literal. */
class IntLit : public Expr
{
  public:
    explicit IntLit(long value) : Expr(ExprKind::IntLit), value(value) {}
    ExprPtr clone() const override;

    long value;
};

/** Floating literal; long_double marks an 'L' suffix / long double context. */
class FloatLit : public Expr
{
  public:
    explicit FloatLit(double value, bool long_double = false)
        : Expr(ExprKind::FloatLit), value(value), long_double(long_double)
    {}
    ExprPtr clone() const override;

    double value;
    bool long_double;
};

/** String literal (used only for configuration-style arguments). */
class StringLit : public Expr
{
  public:
    explicit StringLit(std::string value)
        : Expr(ExprKind::StringLit), value(std::move(value))
    {}
    ExprPtr clone() const override;

    std::string value;
};

/** Name reference. */
class Ident : public Expr
{
  public:
    explicit Ident(std::string name)
        : Expr(ExprKind::Ident), name(std::move(name))
    {}
    ExprPtr clone() const override;

    std::string name;
};

/** Unary operation. */
class Unary : public Expr
{
  public:
    Unary(UnaryOp op, ExprPtr operand)
        : Expr(ExprKind::Unary), op(op), operand(std::move(operand))
    {}
    ExprPtr clone() const override;

    UnaryOp op;
    ExprPtr operand;
};

/** Binary operation. */
class Binary : public Expr
{
  public:
    Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
        : Expr(ExprKind::Binary), op(op), lhs(std::move(lhs)),
          rhs(std::move(rhs))
    {}
    ExprPtr clone() const override;

    BinaryOp op;
    ExprPtr lhs;
    ExprPtr rhs;
    /** Branch id for short-circuit &&/|| (assigned by sema). */
    int branch_id = -1;
};

/** Assignment, including compound assignment. */
class Assign : public Expr
{
  public:
    Assign(AssignOp op, ExprPtr lhs, ExprPtr rhs)
        : Expr(ExprKind::Assign), op(op), lhs(std::move(lhs)),
          rhs(std::move(rhs))
    {}
    ExprPtr clone() const override;

    AssignOp op;
    ExprPtr lhs;
    ExprPtr rhs;
};

/** Free-function call (including intrinsics such as malloc and sqrt). */
class Call : public Expr
{
  public:
    Call(std::string callee, std::vector<ExprPtr> args)
        : Expr(ExprKind::Call), callee(std::move(callee)),
          args(std::move(args))
    {}
    ExprPtr clone() const override;

    std::string callee;
    std::vector<ExprPtr> args;
};

/** Method call on a struct or stream object: base.method(args). */
class MethodCall : public Expr
{
  public:
    MethodCall(ExprPtr base, std::string method, std::vector<ExprPtr> args)
        : Expr(ExprKind::MethodCall), base(std::move(base)),
          method(std::move(method)), args(std::move(args))
    {}
    ExprPtr clone() const override;

    ExprPtr base;
    std::string method;
    std::vector<ExprPtr> args;
};

/** Array subscript base[index]. */
class Index : public Expr
{
  public:
    Index(ExprPtr base, ExprPtr index)
        : Expr(ExprKind::Index), base(std::move(base)),
          index(std::move(index))
    {}
    ExprPtr clone() const override;

    ExprPtr base;
    ExprPtr index;
};

/** Field access base.field or base->field. */
class Member : public Expr
{
  public:
    Member(ExprPtr base, std::string field, bool is_arrow)
        : Expr(ExprKind::Member), base(std::move(base)),
          field(std::move(field)), is_arrow(is_arrow)
    {}
    ExprPtr clone() const override;

    ExprPtr base;
    std::string field;
    bool is_arrow;
};

/** Explicit cast (T)expr. */
class Cast : public Expr
{
  public:
    Cast(TypePtr type, ExprPtr operand)
        : Expr(ExprKind::Cast), type(std::move(type)),
          operand(std::move(operand))
    {}
    ExprPtr clone() const override;

    TypePtr type;
    ExprPtr operand;
};

/** Conditional cond ? then : otherwise. */
class Ternary : public Expr
{
  public:
    Ternary(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
        : Expr(ExprKind::Ternary), cond(std::move(cond)),
          then_expr(std::move(then_expr)), else_expr(std::move(else_expr))
    {}
    ExprPtr clone() const override;

    ExprPtr cond;
    ExprPtr then_expr;
    ExprPtr else_expr;
    int branch_id = -1;
};

/** sizeof(T). */
class SizeofType : public Expr
{
  public:
    explicit SizeofType(TypePtr type)
        : Expr(ExprKind::SizeofType), type(std::move(type))
    {}
    ExprPtr clone() const override;

    TypePtr type;
};

/** Braced struct construction S{a, b}. */
class StructLit : public Expr
{
  public:
    StructLit(std::string struct_name, std::vector<ExprPtr> args)
        : Expr(ExprKind::StructLit), struct_name(std::move(struct_name)),
          args(std::move(args))
    {}
    ExprPtr clone() const override;

    std::string struct_name;
    std::vector<ExprPtr> args;
};

// ---------------------------------------------------------------------------
// HLS pragmas
// ---------------------------------------------------------------------------

/** Kinds of #pragma HLS directives the toolchain understands. */
enum class PragmaKind
{
    Pipeline,
    Unroll,
    ArrayPartition,
    Dataflow,
    Inline,
    Interface,
    LoopTripcount,
    StreamDepth,
};

/** Parsed form of one #pragma HLS line. */
struct PragmaInfo
{
    PragmaKind kind = PragmaKind::Pipeline;
    /** key=value operands, e.g. {"factor","4"} or {"variable","A"}. */
    std::map<std::string, std::string> params;

    std::string str() const;
    /**
     * Integer-valued param lookup; fallback only when the key is
     * missing. A value that is not a whole integer is a FatalError (the
     * parser already rejects those; see isIntegerPragmaParam).
     */
    long paramInt(const std::string &key, long fallback) const;
    /** String param lookup. */
    std::string paramStr(const std::string &key) const;
};

/** True for the operands read as integers: factor, ii and depth. */
bool isIntegerPragmaParam(const std::string &key);

/**
 * A whole, in-range integer operand ("4", "-1"); nullopt for anything
 * else, e.g. "", "abc", "4x)(" or a value beyond long's range.
 */
std::optional<long> parsePragmaInt(const std::string &text);

/** Parse a pragma kind from its directive word ("unroll", ...). */
bool parsePragmaKind(const std::string &word, PragmaKind &kind_out);

/** Directive word for a pragma kind. */
std::string pragmaKindName(PragmaKind kind);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/** Discriminator for Stmt. */
enum class StmtKind
{
    Block,
    Decl,
    ExprStmt,
    If,
    While,
    For,
    Return,
    Break,
    Continue,
    Pragma,
};

/** Base class for all statement nodes. */
class Stmt
{
  public:
    virtual ~Stmt() = default;

    StmtKind kind() const { return kind_; }
    virtual StmtPtr clone() const = 0;

    SourceLoc loc;
    int node_id = 0;

  protected:
    explicit Stmt(StmtKind kind) : kind_(kind) {}

  private:
    StmtKind kind_;
};

/** { ... } sequence of statements. */
class Block : public Stmt
{
  public:
    Block() : Stmt(StmtKind::Block) {}
    StmtPtr clone() const override;

    std::vector<StmtPtr> stmts;
};

using BlockPtr = std::unique_ptr<Block>;

/** Local (or global) variable declaration, optionally initialized. */
class DeclStmt : public Stmt
{
  public:
    DeclStmt(TypePtr type, std::string name, ExprPtr init = nullptr)
        : Stmt(StmtKind::Decl), type(std::move(type)),
          name(std::move(name)), init(std::move(init))
    {}
    StmtPtr clone() const override;

    TypePtr type;
    std::string name;
    ExprPtr init;
    bool is_static = false;
    /**
     * For a variable-length array declaration (type has an unknown array
     * size), the runtime size expression, e.g. the `cols` in
     * `int buf[cols]`. Null for ordinary declarations.
     */
    ExprPtr vla_size;
};

/** Expression evaluated for effect. */
class ExprStmt : public Stmt
{
  public:
    explicit ExprStmt(ExprPtr expr)
        : Stmt(StmtKind::ExprStmt), expr(std::move(expr))
    {}
    StmtPtr clone() const override;

    ExprPtr expr;
};

/** if (cond) then_block else else_block. */
class IfStmt : public Stmt
{
  public:
    IfStmt(ExprPtr cond, BlockPtr then_block, BlockPtr else_block = nullptr)
        : Stmt(StmtKind::If), cond(std::move(cond)),
          then_block(std::move(then_block)),
          else_block(std::move(else_block))
    {}
    StmtPtr clone() const override;

    ExprPtr cond;
    BlockPtr then_block;
    BlockPtr else_block;
    int branch_id = -1;
};

/** while (cond) body. */
class WhileStmt : public Stmt
{
  public:
    WhileStmt(ExprPtr cond, BlockPtr body)
        : Stmt(StmtKind::While), cond(std::move(cond)),
          body(std::move(body))
    {}
    StmtPtr clone() const override;

    ExprPtr cond;
    BlockPtr body;
    int branch_id = -1;
};

/** for (init; cond; step) body. Any header slot may be empty. */
class ForStmt : public Stmt
{
  public:
    ForStmt(StmtPtr init, ExprPtr cond, ExprPtr step, BlockPtr body)
        : Stmt(StmtKind::For), init(std::move(init)), cond(std::move(cond)),
          step(std::move(step)), body(std::move(body))
    {}
    StmtPtr clone() const override;

    StmtPtr init;
    ExprPtr cond;
    ExprPtr step;
    BlockPtr body;
    int branch_id = -1;
};

/** return [expr]. */
class ReturnStmt : public Stmt
{
  public:
    explicit ReturnStmt(ExprPtr value = nullptr)
        : Stmt(StmtKind::Return), value(std::move(value))
    {}
    StmtPtr clone() const override;

    ExprPtr value;
};

/** break. */
class BreakStmt : public Stmt
{
  public:
    BreakStmt() : Stmt(StmtKind::Break) {}
    StmtPtr clone() const override;
};

/** continue. */
class ContinueStmt : public Stmt
{
  public:
    ContinueStmt() : Stmt(StmtKind::Continue) {}
    StmtPtr clone() const override;
};

/** #pragma HLS ... occupying a statement slot. */
class PragmaStmt : public Stmt
{
  public:
    explicit PragmaStmt(PragmaInfo info)
        : Stmt(StmtKind::Pragma), info(std::move(info))
    {}
    StmtPtr clone() const override;

    PragmaInfo info;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/** A function or method parameter. */
struct Param
{
    TypePtr type;
    std::string name;
    bool is_reference = false; ///< C++ reference parameter (streams)
};

/** Function (or struct method) definition. */
class FunctionDecl
{
  public:
    FunctionDecl() = default;
    FunctionDecl(TypePtr ret, std::string name, std::vector<Param> params,
                 BlockPtr body)
        : ret_type(std::move(ret)), name(std::move(name)),
          params(std::move(params)), body(std::move(body))
    {}

    std::unique_ptr<FunctionDecl> clone() const;

    TypePtr ret_type;
    std::string name;
    std::vector<Param> params;
    BlockPtr body;
    SourceLoc loc;
    int node_id = 0;
};

using FunctionPtr = std::unique_ptr<FunctionDecl>;

/** Struct field. */
struct Field
{
    TypePtr type;
    std::string name;
    bool is_reference = false; ///< C++ reference member (streams)
};

/** Constructor: parameters plus a member-init mapping field -> param. */
struct Ctor
{
    std::vector<Param> params;
    std::vector<std::pair<std::string, std::string>> inits;
};

/** struct / union definition. */
class StructDecl
{
  public:
    std::unique_ptr<StructDecl> clone() const;

    std::string name;
    bool is_union = false;
    std::vector<Field> fields;
    std::vector<FunctionPtr> methods;
    std::unique_ptr<Ctor> ctor;
    SourceLoc loc;
    int node_id = 0;

    const Field *findField(const std::string &field_name) const;
    const FunctionDecl *findMethod(const std::string &method_name) const;
};

using StructPtr = std::unique_ptr<StructDecl>;

/** A whole parsed program. */
class TranslationUnit
{
  public:
    TranslationUnit() = default;

    std::unique_ptr<TranslationUnit> clone() const;

    std::vector<StructPtr> structs;
    /** Globals are DeclStmt nodes at file scope. */
    std::vector<StmtPtr> globals;
    std::vector<FunctionPtr> functions;

    FunctionDecl *findFunction(const std::string &name);
    const FunctionDecl *findFunction(const std::string &name) const;
    StructDecl *findStruct(const std::string &name);
    const StructDecl *findStruct(const std::string &name) const;
    DeclStmt *findGlobal(const std::string &name);
};

using TuPtr = std::unique_ptr<TranslationUnit>;

/** Operator spellings used by the printer and diagnostics. */
std::string unaryOpSpelling(UnaryOp op);
std::string binaryOpSpelling(BinaryOp op);
std::string assignOpSpelling(AssignOp op);

} // namespace heterogen::cir

#endif // HETEROGEN_CIR_AST_H
