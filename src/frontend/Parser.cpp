//===--- Parser.cpp - ESP recursive-descent parser -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cassert>

using namespace esp;

Parser::Parser(const SourceManager &SM, uint32_t FileId,
               DiagnosticEngine &Diags)
    : Diags(Diags) {
  Lexer Lex(SM, FileId, Diags);
  Tokens = Lex.lexAll();
}

const Token &Parser::tok(unsigned Ahead) const {
  size_t Index = std::min(Pos + Ahead, Tokens.size() - 1);
  return Tokens[Index];
}

bool Parser::consumeIf(TokenKind Kind) {
  if (tok().isNot(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (consumeIf(Kind))
    return true;
  Diags.error(tok().Loc, std::string("expected ") + tokenKindName(Kind) +
                             " " + Context + ", found " +
                             tokenKindName(tok().Kind));
  return false;
}

/// Keywords that open a top-level declaration; error recovery never
/// skips past one at nesting depth 0.
static bool isDeclarationKeyword(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::KwProcess:
  case TokenKind::KwChannel:
  case TokenKind::KwType:
  case TokenKind::KwInterface:
    return true;
  default:
    return false;
  }
}

/// Skips ahead to a statement/declaration boundary after a parse error.
void Parser::skipToSync() {
  unsigned Depth = 0;
  while (tok().isNot(TokenKind::EndOfFile)) {
    switch (tok().Kind) {
    case TokenKind::Semicolon:
      if (Depth == 0) {
        advance();
        return;
      }
      break;
    case TokenKind::LBrace:
      ++Depth;
      break;
    case TokenKind::RBrace:
      if (Depth == 0)
        return;
      --Depth;
      break;
    default:
      if (Depth == 0 && isDeclarationKeyword(tok().Kind))
        return;
      break;
    }
    advance();
  }
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> Parser::parseProgram() {
  Prog = std::make_unique<Program>();
  while (tok().isNot(TokenKind::EndOfFile)) {
    switch (tok().Kind) {
    case TokenKind::KwType:
      parseTypeDecl();
      break;
    case TokenKind::KwConst:
      parseConstDecl();
      break;
    case TokenKind::KwChannel:
      parseChannelDecl();
      break;
    case TokenKind::KwInterface:
      parseInterfaceDecl();
      break;
    case TokenKind::KwProcess:
      parseProcessDecl();
      break;
    case TokenKind::Semicolon:
      advance();
      break;
    default:
      Diags.error(tok().Loc,
                  std::string("expected a top-level declaration, found ") +
                      tokenKindName(tok().Kind));
      advance();
      skipToSync();
      break;
    }
  }
  return std::move(Prog);
}

std::unique_ptr<Program> Parser::parse(SourceManager &SM,
                                       DiagnosticEngine &Diags,
                                       const std::string &Name,
                                       const std::string &Source) {
  uint32_t FileId = SM.addBuffer(Name, Source);
  Parser P(SM, FileId, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  if (Diags.hasErrors())
    return nullptr;
  return Prog;
}

void Parser::parseTypeDecl() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'type'
  std::string Name(tok().Text);
  if (!expect(TokenKind::Identifier, "after 'type'")) {
    skipToSync();
    return;
  }
  if (!expect(TokenKind::Assign, "in type declaration")) {
    skipToSync();
    return;
  }
  const Type *T = parseType();
  if (!T) {
    skipToSync();
    return;
  }
  consumeIf(TokenKind::Semicolon);
  if (NamedTypes.count(Name)) {
    Diags.error(Loc, "redefinition of type '" + Name + "'");
    return;
  }
  NamedTypes[Name] = T;
  Prog->TypeDecls.push_back(TypeDecl{Name, T, Loc});
}

void Parser::parseConstDecl() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'const'
  std::string Name(tok().Text);
  if (!expect(TokenKind::Identifier, "after 'const'") ||
      !expect(TokenKind::Assign, "in const declaration")) {
    skipToSync();
    return;
  }
  Expr *Init = parseExpr();
  consumeIf(TokenKind::Semicolon);
  if (!Init)
    return;
  auto Decl = std::make_unique<ConstDecl>();
  Decl->Name = std::move(Name);
  Decl->Init = Init;
  Decl->Loc = Loc;
  Prog->ConstDecls.push_back(std::move(Decl));
}

void Parser::parseChannelDecl() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'channel'
  std::string Name(tok().Text);
  if (!expect(TokenKind::Identifier, "after 'channel'") ||
      !expect(TokenKind::Colon, "in channel declaration")) {
    skipToSync();
    return;
  }
  const Type *T = parseType();
  consumeIf(TokenKind::Semicolon);
  if (!T)
    return;
  auto Decl = std::make_unique<ChannelDecl>();
  Decl->Name = std::move(Name);
  Decl->ElemType = T;
  Decl->Id = static_cast<unsigned>(Prog->Channels.size());
  Decl->Loc = Loc;
  Prog->Channels.push_back(std::move(Decl));
}

void Parser::parseInterfaceDecl() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'interface'
  auto Decl = std::make_unique<InterfaceDecl>();
  Decl->Loc = Loc;
  Decl->Name = std::string(tok().Text);
  if (!expect(TokenKind::Identifier, "after 'interface'") ||
      !expect(TokenKind::LParen, "in interface declaration")) {
    skipToSync();
    return;
  }
  if (consumeIf(TokenKind::KwOut)) {
    Decl->ExternalWrites = true;
  } else if (consumeIf(TokenKind::KwIn)) {
    Decl->ExternalWrites = false;
  } else {
    Diags.error(tok().Loc, "expected 'in' or 'out' in interface declaration");
    skipToSync();
    return;
  }
  Decl->ChannelName = std::string(tok().Text);
  if (!expect(TokenKind::Identifier, "as interface channel") ||
      !expect(TokenKind::RParen, "in interface declaration") ||
      !expect(TokenKind::LBrace, "to open interface cases")) {
    skipToSync();
    return;
  }
  while (tok().isNot(TokenKind::RBrace) &&
         tok().isNot(TokenKind::EndOfFile)) {
    InterfaceCase Case;
    Case.Loc = tok().Loc;
    Case.Name = std::string(tok().Text);
    if (!expect(TokenKind::Identifier, "as interface case name") ||
        !expect(TokenKind::LParen, "in interface case")) {
      skipToSync();
      return;
    }
    Case.Pat = parsePattern();
    if (!Case.Pat || !expect(TokenKind::RParen, "to close interface case")) {
      skipToSync();
      return;
    }
    Decl->Cases.push_back(Case);
    if (!consumeIf(TokenKind::Comma))
      break;
  }
  expect(TokenKind::RBrace, "to close interface declaration");
  consumeIf(TokenKind::Semicolon);
  Prog->Interfaces.push_back(std::move(Decl));
}

void Parser::parseProcessDecl() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'process'
  auto Decl = std::make_unique<ProcessDecl>();
  Decl->Loc = Loc;
  Decl->Name = std::string(tok().Text);
  if (!expect(TokenKind::Identifier, "after 'process'")) {
    skipToSync();
    return;
  }
  if (tok().isNot(TokenKind::LBrace)) {
    Diags.error(tok().Loc, "expected '{' to open process body");
    skipToSync();
    return;
  }
  Stmt *Body = parseBlock();
  if (!Body)
    return;
  Decl->Body = ast_cast<BlockStmt>(Body);
  Decl->ProcessId = static_cast<unsigned>(Prog->Processes.size());
  Prog->Processes.push_back(std::move(Decl));
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

const Type *Parser::parseType() {
  bool Mutable = consumeIf(TokenKind::Hash);
  return parseBaseType(Mutable);
}

const Type *Parser::parseBaseType(bool Mutable) {
  TypeContext &Ctx = Prog->getTypeContext();
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::KwInt:
    advance();
    return Ctx.getIntType();
  case TokenKind::KwBool:
    advance();
    return Ctx.getBoolType();
  case TokenKind::Identifier: {
    std::string Name(tok().Text);
    advance();
    auto It = NamedTypes.find(Name);
    if (It == NamedTypes.end()) {
      Diags.error(Loc, "unknown type '" + Name + "'");
      return nullptr;
    }
    return Mutable ? Ctx.withMutability(It->second, true) : It->second;
  }
  case TokenKind::KwRecord:
  case TokenKind::KwUnion: {
    bool IsRecord = tok().is(TokenKind::KwRecord);
    advance();
    if (!expect(TokenKind::KwOf, "in aggregate type") ||
        !expect(TokenKind::LBrace, "to open field list"))
      return nullptr;
    std::vector<TypeField> Fields = parseFieldList();
    if (!expect(TokenKind::RBrace, "to close field list"))
      return nullptr;
    if (Fields.empty()) {
      Diags.error(Loc, "aggregate type requires at least one field");
      return nullptr;
    }
    return IsRecord ? Ctx.getRecordType(std::move(Fields), Mutable)
                    : Ctx.getUnionType(std::move(Fields), Mutable);
  }
  case TokenKind::KwArray: {
    advance();
    if (!expect(TokenKind::KwOf, "in array type"))
      return nullptr;
    const Type *Elem = parseType();
    if (!Elem)
      return nullptr;
    return Ctx.getArrayType(Elem, Mutable);
  }
  default:
    Diags.error(Loc, std::string("expected a type, found ") +
                         tokenKindName(tok().Kind));
    return nullptr;
  }
}

std::vector<TypeField> Parser::parseFieldList() {
  std::vector<TypeField> Fields;
  while (tok().is(TokenKind::Identifier)) {
    TypeField Field;
    Field.Name = std::string(tok().Text);
    advance();
    if (!expect(TokenKind::Colon, "after field name"))
      return Fields;
    Field.FieldType = parseType();
    if (!Field.FieldType)
      return Fields;
    Fields.push_back(std::move(Field));
    if (!consumeIf(TokenKind::Comma))
      break;
    // Allow a trailing "..." in field lists (the paper elides fields with
    // "..." in its examples); it contributes nothing.
    if (consumeIf(TokenKind::Ellipsis))
      break;
  }
  return Fields;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Stmt *Parser::parseStmt() {
  switch (tok().Kind) {
  case TokenKind::LBrace: {
    // `{` opens either a block statement or a pattern assignment like
    // `{ send |> { $dest, ... } }: userT = ur;`. Scan to the matching
    // close brace: a `:` or `=` after it means a pattern assignment.
    unsigned Depth = 0;
    unsigned Ahead = 0;
    while (true) {
      const Token &T = tok(Ahead);
      if (T.is(TokenKind::EndOfFile))
        break;
      if (T.is(TokenKind::LBrace))
        ++Depth;
      else if (T.is(TokenKind::RBrace) && --Depth == 0) {
        const Token &Next = tok(Ahead + 1);
        if (Next.is(TokenKind::Colon) || Next.is(TokenKind::Assign))
          return parsePatternAssignStmt();
        break;
      }
      ++Ahead;
    }
    return parseBlock();
  }
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwAlt:
    return parseAlt();
  case TokenKind::KwIn:
  case TokenKind::KwOut:
    return parseCommStmt();
  case TokenKind::Dollar:
    return parseDeclStmt();
  case TokenKind::KwLink:
  case TokenKind::KwUnlink: {
    bool IsLink = tok().is(TokenKind::KwLink);
    SourceLoc Loc = tok().Loc;
    advance();
    if (!expect(TokenKind::LParen, "after link/unlink"))
      return nullptr;
    Expr *Obj = parseExpr();
    if (!Obj || !expect(TokenKind::RParen, "to close link/unlink") ||
        !expect(TokenKind::Semicolon, "after link/unlink"))
      return nullptr;
    if (IsLink)
      return Prog->create<LinkStmt>(Loc, Obj);
    return Prog->create<UnlinkStmt>(Loc, Obj);
  }
  case TokenKind::KwAssert: {
    SourceLoc Loc = tok().Loc;
    advance();
    if (!expect(TokenKind::LParen, "after 'assert'"))
      return nullptr;
    Expr *Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen, "to close 'assert'") ||
        !expect(TokenKind::Semicolon, "after 'assert'"))
      return nullptr;
    return Prog->create<AssertStmt>(Loc, Cond);
  }
  default:
    return parseExprLeadStmt();
  }
}

Stmt *Parser::parseBlock() {
  SourceLoc Loc = tok().Loc;
  if (!expect(TokenKind::LBrace, "to open block"))
    return nullptr;
  std::vector<Stmt *> Body;
  while (tok().isNot(TokenKind::RBrace) &&
         tok().isNot(TokenKind::EndOfFile)) {
    Stmt *S = parseStmt();
    if (!S) {
      skipToSync();
      // skipToSync stops *before* a depth-0 declaration keyword. Such a
      // keyword cannot start a statement, so the block is unterminated:
      // end it here and let the top level resume at the declaration
      // (retrying would stop at the same token forever).
      if (isDeclarationKeyword(tok().Kind))
        break;
      continue;
    }
    Body.push_back(S);
  }
  expect(TokenKind::RBrace, "to close block");
  return Prog->create<BlockStmt>(Loc, std::move(Body));
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'if'
  if (!expect(TokenKind::LParen, "after 'if'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "to close 'if' condition"))
    return nullptr;
  Stmt *Then = parseStmt();
  if (!Then)
    return nullptr;
  Stmt *Else = nullptr;
  if (consumeIf(TokenKind::KwElse)) {
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return Prog->create<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'while'
  Expr *Cond = nullptr;
  if (consumeIf(TokenKind::LParen)) {
    Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen, "to close 'while' condition"))
      return nullptr;
    // `while (true)` is the idiomatic infinite loop; normalize to no-cond.
    if (BoolLitExpr *B = ast_dyn_cast<BoolLitExpr>(Cond))
      if (B->getValue())
        Cond = nullptr;
  }
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Prog->create<WhileStmt>(Loc, Cond, Body);
}

CommAction Parser::parseCommAction() {
  CommAction Action;
  Action.Loc = tok().Loc;
  Action.IsIn = tok().is(TokenKind::KwIn);
  advance(); // 'in' or 'out'
  if (!expect(TokenKind::LParen, "after in/out"))
    return Action;
  Action.ChannelName = std::string(tok().Text);
  if (!expect(TokenKind::Identifier, "as channel name") ||
      !expect(TokenKind::Comma, "after channel name"))
    return Action;
  if (Action.IsIn)
    Action.Pat = parsePattern();
  else
    Action.Out = parseExpr();
  expect(TokenKind::RParen, "to close in/out");
  return Action;
}

Stmt *Parser::parseCommStmt() {
  SourceLoc Loc = tok().Loc;
  CommAction Action = parseCommAction();
  expect(TokenKind::Semicolon, "after in/out statement");
  AltCase Case;
  Case.Action = Action;
  Case.Loc = Loc;
  std::vector<AltCase> Cases;
  Cases.push_back(Case);
  return Prog->create<AltStmt>(Loc, std::move(Cases));
}

Stmt *Parser::parseAlt() {
  SourceLoc Loc = tok().Loc;
  advance(); // 'alt'
  if (!expect(TokenKind::LBrace, "to open alt"))
    return nullptr;
  std::vector<AltCase> Cases;
  while (tok().is(TokenKind::KwCase)) {
    AltCase Case;
    Case.Loc = tok().Loc;
    advance(); // 'case'
    if (!expect(TokenKind::LParen, "after 'case'"))
      return nullptr;
    // A case is either `case( action )` or `case( guard, action )`.
    if (tok().is(TokenKind::KwIn) || tok().is(TokenKind::KwOut)) {
      Case.Action = parseCommAction();
    } else {
      Case.Guard = parseExpr();
      if (!Case.Guard || !expect(TokenKind::Comma, "after case guard"))
        return nullptr;
      if (tok().isNot(TokenKind::KwIn) && tok().isNot(TokenKind::KwOut)) {
        Diags.error(tok().Loc, "expected 'in' or 'out' action in case");
        return nullptr;
      }
      Case.Action = parseCommAction();
    }
    if (!expect(TokenKind::RParen, "to close 'case'"))
      return nullptr;
    if (tok().is(TokenKind::LBrace)) {
      Case.Body = parseBlock();
      if (!Case.Body)
        return nullptr;
    }
    Cases.push_back(Case);
  }
  if (!expect(TokenKind::RBrace, "to close alt"))
    return nullptr;
  if (Cases.empty()) {
    Diags.error(Loc, "alt statement requires at least one case");
    return nullptr;
  }
  return Prog->create<AltStmt>(Loc, std::move(Cases));
}

Stmt *Parser::parseDeclStmt() {
  SourceLoc Loc = tok().Loc;
  advance(); // '$'
  std::string Name(tok().Text);
  if (!expect(TokenKind::Identifier, "after '$'"))
    return nullptr;
  const Type *Annotation = nullptr;
  if (consumeIf(TokenKind::Colon)) {
    Annotation = parseType();
    if (!Annotation)
      return nullptr;
  }
  if (!expect(TokenKind::Assign, "in variable declaration"))
    return nullptr;
  Expr *Init = parseExpr();
  if (!Init || !expect(TokenKind::Semicolon, "after variable declaration"))
    return nullptr;
  return Prog->create<DeclStmt>(Loc, std::move(Name), Annotation, Init);
}

Stmt *Parser::parsePatternAssignStmt() {
  SourceLoc Loc = tok().Loc;
  Pattern *LHS = parseBracePattern();
  if (!LHS)
    return nullptr;
  const Type *Annotation = nullptr;
  if (consumeIf(TokenKind::Colon)) {
    Annotation = parseType();
    if (!Annotation)
      return nullptr;
  }
  if (!expect(TokenKind::Assign, "in pattern assignment"))
    return nullptr;
  Expr *RHS = parseExpr();
  if (!RHS || !expect(TokenKind::Semicolon, "after assignment"))
    return nullptr;
  return Prog->create<AssignStmt>(Loc, LHS, Annotation, RHS);
}

Stmt *Parser::parseExprLeadStmt() {
  SourceLoc Loc = tok().Loc;
  if (tok().is(TokenKind::LBrace))
    return parsePatternAssignStmt();
  Expr *LHS = parseExpr();
  if (!LHS)
    return nullptr;
  if (!expect(TokenKind::Assign, "in assignment statement"))
    return nullptr;
  Expr *RHS = parseExpr();
  if (!RHS || !expect(TokenKind::Semicolon, "after assignment"))
    return nullptr;
  Pattern *LHSPat = Prog->create<MatchPattern>(LHS->getLoc(), LHS);
  return Prog->create<AssignStmt>(Loc, LHSPat, nullptr, RHS);
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

Pattern *Parser::parsePattern() {
  SourceLoc Loc = tok().Loc;
  if (tok().is(TokenKind::Dollar)) {
    advance();
    std::string Name(tok().Text);
    if (!expect(TokenKind::Identifier, "after '$' in pattern"))
      return nullptr;
    return Prog->create<BindPattern>(Loc, std::move(Name));
  }
  if (tok().is(TokenKind::LBrace))
    return parseBracePattern();
  Expr *Value = parseExpr();
  if (!Value)
    return nullptr;
  return Prog->create<MatchPattern>(Loc, Value);
}

Pattern *Parser::parseBracePattern() {
  SourceLoc Loc = tok().Loc;
  if (!expect(TokenKind::LBrace, "to open pattern"))
    return nullptr;
  // `{ field |> sub }` is a union pattern.
  if (tok().is(TokenKind::Identifier) && tok(1).is(TokenKind::PipeGreater)) {
    std::string FieldName(tok().Text);
    advance();
    advance(); // '|>'
    Pattern *Sub = parsePattern();
    if (!Sub || !expect(TokenKind::RBrace, "to close union pattern"))
      return nullptr;
    return Prog->create<UnionPattern>(Loc, std::move(FieldName), Sub);
  }
  std::vector<Pattern *> Elems;
  while (tok().isNot(TokenKind::RBrace) &&
         tok().isNot(TokenKind::EndOfFile)) {
    Pattern *Elem = parsePattern();
    if (!Elem)
      return nullptr;
    Elems.push_back(Elem);
    if (!consumeIf(TokenKind::Comma))
      break;
    if (consumeIf(TokenKind::Ellipsis))
      break;
  }
  if (!expect(TokenKind::RBrace, "to close record pattern"))
    return nullptr;
  return Prog->create<RecordPattern>(Loc, std::move(Elems));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

static int binaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Less:
  case TokenKind::LessEqual:
  case TokenKind::Greater:
  case TokenKind::GreaterEqual:
    return 4;
  case TokenKind::EqualEqual:
  case TokenKind::NotEqual:
    return 3;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::PipePipe:
    return 1;
  default:
    return 0;
  }
}

static BinaryOp binaryOpFor(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Mod;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::Less:
    return BinaryOp::Lt;
  case TokenKind::LessEqual:
    return BinaryOp::Le;
  case TokenKind::Greater:
    return BinaryOp::Gt;
  case TokenKind::GreaterEqual:
    return BinaryOp::Ge;
  case TokenKind::EqualEqual:
    return BinaryOp::Eq;
  case TokenKind::NotEqual:
    return BinaryOp::Ne;
  case TokenKind::AmpAmp:
    return BinaryOp::And;
  case TokenKind::PipePipe:
    return BinaryOp::Or;
  default:
    assert(false && "not a binary operator token");
    return BinaryOp::Add;
  }
}

Expr *Parser::parseExpr() {
  Expr *LHS = parseUnary();
  if (!LHS)
    return nullptr;
  return parseBinaryRHS(1, LHS);
}

Expr *Parser::parseBinaryRHS(int MinPrec, Expr *LHS) {
  while (true) {
    int Prec = binaryPrecedence(tok().Kind);
    if (Prec < MinPrec)
      return LHS;
    TokenKind OpKind = tok().Kind;
    SourceLoc OpLoc = tok().Loc;
    advance();
    Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    int NextPrec = binaryPrecedence(tok().Kind);
    if (Prec < NextPrec) {
      RHS = parseBinaryRHS(Prec + 1, RHS);
      if (!RHS)
        return nullptr;
    }
    LHS = Prog->create<BinaryExpr>(OpLoc, binaryOpFor(OpKind), LHS, RHS);
  }
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = tok().Loc;
  if (consumeIf(TokenKind::Bang)) {
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return Prog->create<UnaryExpr>(Loc, UnaryOp::Not, Sub);
  }
  if (consumeIf(TokenKind::Minus)) {
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return Prog->create<UnaryExpr>(Loc, UnaryOp::Neg, Sub);
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    SourceLoc Loc = tok().Loc;
    if (consumeIf(TokenKind::Dot)) {
      std::string FieldName(tok().Text);
      if (!expect(TokenKind::Identifier, "after '.'"))
        return nullptr;
      E = Prog->create<FieldExpr>(Loc, E, std::move(FieldName));
      continue;
    }
    if (consumeIf(TokenKind::LBracket)) {
      Expr *Index = parseExpr();
      if (!Index || !expect(TokenKind::RBracket, "to close index"))
        return nullptr;
      E = Prog->create<IndexExpr>(Loc, E, Index);
      continue;
    }
    return E;
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::IntLiteral: {
    int64_t Value = tok().IntValue;
    advance();
    return Prog->create<IntLitExpr>(Loc, Value);
  }
  case TokenKind::KwTrue:
    advance();
    return Prog->create<BoolLitExpr>(Loc, true);
  case TokenKind::KwFalse:
    advance();
    return Prog->create<BoolLitExpr>(Loc, false);
  case TokenKind::At:
    advance();
    return Prog->create<SelfIdExpr>(Loc);
  case TokenKind::Identifier: {
    std::string Name(tok().Text);
    advance();
    return Prog->create<VarRefExpr>(Loc, std::move(Name));
  }
  case TokenKind::LParen: {
    advance();
    Expr *E = parseExpr();
    if (!E || !expect(TokenKind::RParen, "to close parenthesized expression"))
      return nullptr;
    return E;
  }
  case TokenKind::KwCast: {
    advance();
    if (!expect(TokenKind::LParen, "after 'cast'"))
      return nullptr;
    Expr *Sub = parseExpr();
    if (!Sub || !expect(TokenKind::RParen, "to close 'cast'"))
      return nullptr;
    return Prog->create<CastExpr>(Loc, Sub);
  }
  case TokenKind::Hash:
    advance();
    if (tok().isNot(TokenKind::LBrace)) {
      Diags.error(tok().Loc, "expected '{' after '#' in expression");
      return nullptr;
    }
    return parseBraceLiteral(/*Mutable=*/true);
  case TokenKind::LBrace:
    return parseBraceLiteral(/*Mutable=*/false);
  default:
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokenKindName(tok().Kind));
    return nullptr;
  }
}

Expr *Parser::parseBraceLiteral(bool Mutable) {
  SourceLoc Loc = tok().Loc;
  expect(TokenKind::LBrace, "to open literal");
  // `{ field |> expr }` allocates a union.
  if (tok().is(TokenKind::Identifier) && tok(1).is(TokenKind::PipeGreater)) {
    std::string FieldName(tok().Text);
    advance();
    advance(); // '|>'
    Expr *Value = parseExpr();
    if (!Value || !expect(TokenKind::RBrace, "to close union literal"))
      return nullptr;
    return Prog->create<UnionLitExpr>(Loc, Mutable, std::move(FieldName),
                                      Value);
  }
  Expr *First = parseExpr();
  if (!First)
    return nullptr;
  // `{ size -> init }` allocates an array.
  if (consumeIf(TokenKind::Arrow)) {
    Expr *Init = parseExpr();
    if (!Init)
      return nullptr;
    if (consumeIf(TokenKind::Comma))
      consumeIf(TokenKind::Ellipsis);
    if (!expect(TokenKind::RBrace, "to close array literal"))
      return nullptr;
    return Prog->create<ArrayLitExpr>(Loc, Mutable, First, Init);
  }
  // Otherwise a record literal.
  std::vector<Expr *> Elems;
  Elems.push_back(First);
  while (consumeIf(TokenKind::Comma)) {
    if (consumeIf(TokenKind::Ellipsis))
      break;
    Expr *Elem = parseExpr();
    if (!Elem)
      return nullptr;
    Elems.push_back(Elem);
  }
  if (!expect(TokenKind::RBrace, "to close record literal"))
    return nullptr;
  return Prog->create<RecordLitExpr>(Loc, Mutable, std::move(Elems));
}
