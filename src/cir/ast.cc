#include "cir/ast.h"

#include <charconv>

#include "support/strings.h"

namespace heterogen::cir {

namespace {

/** Clone helper preserving loc/node_id/branch metadata. */
template <typename NodeT>
std::unique_ptr<NodeT>
finish(std::unique_ptr<NodeT> copy, const Expr &original)
{
    copy->loc = original.loc;
    copy->node_id = original.node_id;
    return copy;
}

template <typename NodeT>
std::unique_ptr<NodeT>
finish(std::unique_ptr<NodeT> copy, const Stmt &original)
{
    copy->loc = original.loc;
    copy->node_id = original.node_id;
    return copy;
}

ExprPtr
cloneOrNull(const ExprPtr &e)
{
    return e ? e->clone() : nullptr;
}

StmtPtr
cloneOrNull(const StmtPtr &s)
{
    return s ? s->clone() : nullptr;
}

std::vector<ExprPtr>
cloneAll(const std::vector<ExprPtr> &exprs)
{
    std::vector<ExprPtr> out;
    out.reserve(exprs.size());
    for (const auto &e : exprs)
        out.push_back(e->clone());
    return out;
}

BlockPtr
cloneBlock(const BlockPtr &block)
{
    if (!block)
        return nullptr;
    StmtPtr copy = block->clone();
    return BlockPtr(static_cast<Block *>(copy.release()));
}

} // namespace

// --- Expr clones -----------------------------------------------------------

ExprPtr
IntLit::clone() const
{
    return finish(std::make_unique<IntLit>(value), *this);
}

ExprPtr
FloatLit::clone() const
{
    return finish(std::make_unique<FloatLit>(value, long_double), *this);
}

ExprPtr
StringLit::clone() const
{
    return finish(std::make_unique<StringLit>(value), *this);
}

ExprPtr
Ident::clone() const
{
    return finish(std::make_unique<Ident>(name), *this);
}

ExprPtr
Unary::clone() const
{
    return finish(std::make_unique<Unary>(op, operand->clone()), *this);
}

ExprPtr
Binary::clone() const
{
    auto copy = std::make_unique<Binary>(op, lhs->clone(), rhs->clone());
    copy->branch_id = branch_id;
    return finish(std::move(copy), *this);
}

ExprPtr
Assign::clone() const
{
    return finish(std::make_unique<Assign>(op, lhs->clone(), rhs->clone()),
                  *this);
}

ExprPtr
Call::clone() const
{
    return finish(std::make_unique<Call>(callee, cloneAll(args)), *this);
}

ExprPtr
MethodCall::clone() const
{
    return finish(
        std::make_unique<MethodCall>(base->clone(), method, cloneAll(args)),
        *this);
}

ExprPtr
Index::clone() const
{
    return finish(std::make_unique<Index>(base->clone(), index->clone()),
                  *this);
}

ExprPtr
Member::clone() const
{
    return finish(std::make_unique<Member>(base->clone(), field, is_arrow),
                  *this);
}

ExprPtr
Cast::clone() const
{
    return finish(std::make_unique<Cast>(type, operand->clone()), *this);
}

ExprPtr
Ternary::clone() const
{
    auto copy = std::make_unique<Ternary>(cond->clone(), then_expr->clone(),
                                          else_expr->clone());
    copy->branch_id = branch_id;
    return finish(std::move(copy), *this);
}

ExprPtr
SizeofType::clone() const
{
    return finish(std::make_unique<SizeofType>(type), *this);
}

ExprPtr
StructLit::clone() const
{
    return finish(std::make_unique<StructLit>(struct_name, cloneAll(args)),
                  *this);
}

// --- Pragma ----------------------------------------------------------------

std::string
PragmaInfo::str() const
{
    std::string out = "#pragma HLS " + pragmaKindName(kind);
    for (const auto &[key, value] : params) {
        out += " ";
        if (value.empty())
            out += key;
        else
            out += key + "=" + value;
    }
    return out;
}

long
PragmaInfo::paramInt(const std::string &key, long fallback) const
{
    auto it = params.find(key);
    if (it == params.end())
        return fallback;
    if (std::optional<long> value = parsePragmaInt(it->second))
        return *value;
    fatal("pragma operand ", key, "=", it->second, " is not an integer");
}

std::string
PragmaInfo::paramStr(const std::string &key) const
{
    auto it = params.find(key);
    return it == params.end() ? std::string() : it->second;
}

bool
isIntegerPragmaParam(const std::string &key)
{
    return key == "factor" || key == "ii" || key == "depth";
}

std::optional<long>
parsePragmaInt(const std::string &text)
{
    long value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

bool
parsePragmaKind(const std::string &word, PragmaKind &kind_out)
{
    const std::string w = toLower(word);
    if (w == "pipeline") {
        kind_out = PragmaKind::Pipeline;
    } else if (w == "unroll") {
        kind_out = PragmaKind::Unroll;
    } else if (w == "array_partition") {
        kind_out = PragmaKind::ArrayPartition;
    } else if (w == "dataflow") {
        kind_out = PragmaKind::Dataflow;
    } else if (w == "inline") {
        kind_out = PragmaKind::Inline;
    } else if (w == "interface") {
        kind_out = PragmaKind::Interface;
    } else if (w == "loop_tripcount") {
        kind_out = PragmaKind::LoopTripcount;
    } else if (w == "stream") {
        kind_out = PragmaKind::StreamDepth;
    } else {
        return false;
    }
    return true;
}

std::string
pragmaKindName(PragmaKind kind)
{
    switch (kind) {
      case PragmaKind::Pipeline: return "pipeline";
      case PragmaKind::Unroll: return "unroll";
      case PragmaKind::ArrayPartition: return "array_partition";
      case PragmaKind::Dataflow: return "dataflow";
      case PragmaKind::Inline: return "inline";
      case PragmaKind::Interface: return "interface";
      case PragmaKind::LoopTripcount: return "loop_tripcount";
      case PragmaKind::StreamDepth: return "stream";
    }
    return "?";
}

// --- Stmt clones -----------------------------------------------------------

StmtPtr
Block::clone() const
{
    auto copy = std::make_unique<Block>();
    copy->stmts.reserve(stmts.size());
    for (const auto &s : stmts)
        copy->stmts.push_back(s->clone());
    return finish(std::move(copy), *this);
}

StmtPtr
DeclStmt::clone() const
{
    auto copy = std::make_unique<DeclStmt>(type, name, cloneOrNull(init));
    copy->is_static = is_static;
    copy->vla_size = cloneOrNull(vla_size);
    return finish(std::move(copy), *this);
}

StmtPtr
ExprStmt::clone() const
{
    return finish(std::make_unique<ExprStmt>(expr->clone()), *this);
}

StmtPtr
IfStmt::clone() const
{
    auto copy = std::make_unique<IfStmt>(cond->clone(),
                                         cloneBlock(then_block),
                                         cloneBlock(else_block));
    copy->branch_id = branch_id;
    return finish(std::move(copy), *this);
}

StmtPtr
WhileStmt::clone() const
{
    auto copy = std::make_unique<WhileStmt>(cond->clone(),
                                            cloneBlock(body));
    copy->branch_id = branch_id;
    return finish(std::move(copy), *this);
}

StmtPtr
ForStmt::clone() const
{
    auto copy = std::make_unique<ForStmt>(cloneOrNull(init),
                                          cloneOrNull(cond),
                                          cloneOrNull(step),
                                          cloneBlock(body));
    copy->branch_id = branch_id;
    return finish(std::move(copy), *this);
}

StmtPtr
ReturnStmt::clone() const
{
    return finish(std::make_unique<ReturnStmt>(cloneOrNull(value)), *this);
}

StmtPtr
BreakStmt::clone() const
{
    return finish(std::make_unique<BreakStmt>(), *this);
}

StmtPtr
ContinueStmt::clone() const
{
    return finish(std::make_unique<ContinueStmt>(), *this);
}

StmtPtr
PragmaStmt::clone() const
{
    return finish(std::make_unique<PragmaStmt>(info), *this);
}

// --- Declarations ----------------------------------------------------------

FunctionPtr
FunctionDecl::clone() const
{
    auto copy = std::make_unique<FunctionDecl>();
    copy->ret_type = ret_type;
    copy->name = name;
    copy->params = params;
    copy->body = cloneBlock(body);
    copy->loc = loc;
    copy->node_id = node_id;
    return copy;
}

StructPtr
StructDecl::clone() const
{
    auto copy = std::make_unique<StructDecl>();
    copy->name = name;
    copy->is_union = is_union;
    copy->fields = fields;
    for (const auto &m : methods)
        copy->methods.push_back(m->clone());
    if (ctor)
        copy->ctor = std::make_unique<Ctor>(*ctor);
    copy->loc = loc;
    copy->node_id = node_id;
    return copy;
}

const Field *
StructDecl::findField(const std::string &field_name) const
{
    for (const auto &f : fields) {
        if (f.name == field_name)
            return &f;
    }
    return nullptr;
}

const FunctionDecl *
StructDecl::findMethod(const std::string &method_name) const
{
    for (const auto &m : methods) {
        if (m->name == method_name)
            return m.get();
    }
    return nullptr;
}

TuPtr
TranslationUnit::clone() const
{
    auto copy = std::make_unique<TranslationUnit>();
    for (const auto &s : structs)
        copy->structs.push_back(s->clone());
    for (const auto &g : globals)
        copy->globals.push_back(g->clone());
    for (const auto &f : functions)
        copy->functions.push_back(f->clone());
    return copy;
}

FunctionDecl *
TranslationUnit::findFunction(const std::string &fn_name)
{
    for (auto &f : functions) {
        if (f->name == fn_name)
            return f.get();
    }
    return nullptr;
}

const FunctionDecl *
TranslationUnit::findFunction(const std::string &fn_name) const
{
    for (const auto &f : functions) {
        if (f->name == fn_name)
            return f.get();
    }
    return nullptr;
}

StructDecl *
TranslationUnit::findStruct(const std::string &struct_name)
{
    for (auto &s : structs) {
        if (s->name == struct_name)
            return s.get();
    }
    return nullptr;
}

const StructDecl *
TranslationUnit::findStruct(const std::string &struct_name) const
{
    for (const auto &s : structs) {
        if (s->name == struct_name)
            return s.get();
    }
    return nullptr;
}

DeclStmt *
TranslationUnit::findGlobal(const std::string &global_name)
{
    for (auto &g : globals) {
        if (g->kind() == StmtKind::Decl) {
            auto *d = static_cast<DeclStmt *>(g.get());
            if (d->name == global_name)
                return d;
        }
    }
    return nullptr;
}

// --- spellings --------------------------------------------------------------

std::string
unaryOpSpelling(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Neg: return "-";
      case UnaryOp::Not: return "!";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::Deref: return "*";
      case UnaryOp::AddrOf: return "&";
      case UnaryOp::PreInc:
      case UnaryOp::PostInc:
        return "++";
      case UnaryOp::PreDec:
      case UnaryOp::PostDec:
        return "--";
    }
    return "?";
}

std::string
binaryOpSpelling(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
    }
    return "?";
}

std::string
assignOpSpelling(AssignOp op)
{
    switch (op) {
      case AssignOp::Plain: return "=";
      case AssignOp::Add: return "+=";
      case AssignOp::Sub: return "-=";
      case AssignOp::Mul: return "*=";
      case AssignOp::Div: return "/=";
      case AssignOp::Mod: return "%=";
    }
    return "?";
}

} // namespace heterogen::cir
