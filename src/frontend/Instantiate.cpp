//===--- Instantiate.cpp - Multi-copy program instantiation -------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Instantiate.h"

#include "frontend/Lexer.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <set>

using namespace esp;

namespace {

/// Collects the top-level declared names of \p Tokens: the identifier
/// following `type`, `const`, `channel`, `interface`, or `process` at
/// brace depth zero.
std::set<std::string> collectTopLevelNames(const std::vector<Token> &Tokens) {
  std::set<std::string> Names;
  unsigned Depth = 0;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.is(TokenKind::LBrace))
      ++Depth;
    else if (T.is(TokenKind::RBrace) && Depth > 0)
      --Depth;
    if (Depth != 0)
      continue;
    switch (T.Kind) {
    case TokenKind::KwType:
    case TokenKind::KwConst:
    case TokenKind::KwChannel:
    case TokenKind::KwInterface:
    case TokenKind::KwProcess:
      if (Tokens[I + 1].is(TokenKind::Identifier))
        Names.insert(std::string(Tokens[I + 1].Text));
      break;
    default:
      break;
    }
  }
  return Names;
}

/// Emits one renamed copy of the token stream. Identifiers in \p Names
/// get the prefix unless they are field accesses (preceded by `.`) or
/// union selectors (followed by `|>`). When \p StripInterfaces is set,
/// whole `interface ... { ... }` declarations are dropped.
std::string emitInstance(const std::vector<Token> &Tokens,
                         const std::set<std::string> &Names,
                         const std::string &Prefix, bool StripInterfaces) {
  std::string Out;
  unsigned Depth = 0;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.is(TokenKind::EndOfFile))
      break;
    if (T.is(TokenKind::LBrace))
      ++Depth;
    else if (T.is(TokenKind::RBrace) && Depth > 0)
      --Depth;

    if (StripInterfaces && Depth == 0 && T.is(TokenKind::KwInterface)) {
      // Skip to the matching close brace of the interface body.
      unsigned Inner = 0;
      while (I < Tokens.size() && !Tokens[I].is(TokenKind::EndOfFile)) {
        if (Tokens[I].is(TokenKind::LBrace))
          ++Inner;
        else if (Tokens[I].is(TokenKind::RBrace) && --Inner == 0)
          break;
        ++I;
      }
      continue;
    }

    bool Rename = false;
    if (T.is(TokenKind::Identifier) && Names.count(std::string(T.Text))) {
      bool AfterDot = I > 0 && Tokens[I - 1].is(TokenKind::Dot);
      bool BeforeSelector =
          I + 1 < Tokens.size() && Tokens[I + 1].is(TokenKind::PipeGreater);
      Rename = !AfterDot && !BeforeSelector;
    }
    if (Rename)
      Out += Prefix;
    Out += std::string(T.Text);
    Out += ' ';
    // Keep declarations on their own lines for readable diagnostics.
    if (T.is(TokenKind::Semicolon) || T.is(TokenKind::LBrace) ||
        T.is(TokenKind::RBrace))
      Out += '\n';
  }
  Out += '\n';
  return Out;
}

} // namespace

std::string esp::instantiateProgram(const std::string &Source,
                                    const InstantiateOptions &Options,
                                    const std::string &Harness) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  uint32_t FileId = SM.addBuffer("instantiate.esp", Source);
  Lexer Lex(SM, FileId, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  std::set<std::string> Names = collectTopLevelNames(Tokens);

  std::string Out;
  for (unsigned I = 0; I != Options.Instances; ++I) {
    Out += "// ==== instance " + std::to_string(I) + " ====\n";
    Out += emitInstance(Tokens, Names,
                        std::string("m").append(std::to_string(I)) + "_",
                        Options.StripInterfaces);
  }
  if (!Harness.empty()) {
    Out += "// ==== harness ====\n";
    Out += Harness;
  }
  return Out;
}
