//===- Parser.cpp - Textual OIR parser -------------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The parser runs in three passes over a pre-lexed token stream:
//   1. register every class name and skip bodies, then check that every
//      superclass name resolves and that inheritance is acyclic;
//   2. parse globals, class fields, and method/function signatures;
//   3. parse method/function bodies.
// This allows forward references between all top-level entities.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/IRBuilder.h"
#include "o2/Support/Casting.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

using namespace o2;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind : uint8_t {
  Ident,
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Colon,
  Semi,
  Comma,
  Dot,
  Equal,
  At,
  Star,
  Eof,
};

/// The reserved words, classified once per token at lex time. A keyword
/// is still an Ident token: the grammar accepts keyword-spelled names
/// wherever it expects a name.
enum class Kw : uint8_t {
  None,
  Acquire,
  Atomic,
  Class,
  Extends,
  Field,
  Func,
  Global,
  Int,
  Join,
  Loop,
  Method,
  New,
  Newarray,
  Release,
  Return,
  Spawn,
  Var,
};

Kw classifyWord(std::string_view W) {
  // Most words are names, and most names fail on the first byte.
  switch (W[0]) {
  case 'a':
    return W == "acquire" ? Kw::Acquire : W == "atomic" ? Kw::Atomic : Kw::None;
  case 'c':
    return W == "class" ? Kw::Class : Kw::None;
  case 'e':
    return W == "extends" ? Kw::Extends : Kw::None;
  case 'f':
    return W == "field" ? Kw::Field : W == "func" ? Kw::Func : Kw::None;
  case 'g':
    return W == "global" ? Kw::Global : Kw::None;
  case 'i':
    return W == "int" ? Kw::Int : Kw::None;
  case 'j':
    return W == "join" ? Kw::Join : Kw::None;
  case 'l':
    return W == "loop" ? Kw::Loop : Kw::None;
  case 'm':
    return W == "method" ? Kw::Method : Kw::None;
  case 'n':
    return W == "new" ? Kw::New : W == "newarray" ? Kw::Newarray : Kw::None;
  case 'r':
    return W == "release" ? Kw::Release : W == "return" ? Kw::Return : Kw::None;
  case 's':
    return W == "spawn" ? Kw::Spawn : Kw::None;
  case 'v':
    return W == "var" ? Kw::Var : Kw::None;
  default:
    return Kw::None;
  }
}

/// A token is its kind and its text, a range of the source; positions are
/// recovered from the offset only when a diagnostic needs one.
struct Token {
  uint32_t Offset;
  uint32_t Len;
  /// For '{': the index of the matching '}' token, or of the Eof token if
  /// the block never closes. Matched once at lex time, so skipping a body
  /// costs one jump instead of a walk over its tokens.
  uint32_t Close;
  TokKind Kind;
  Kw Keyword;
};

/// What a byte can start. Matches the "C" locale's isspace/isalpha/isalnum
/// on ASCII; a byte >= 0x80 starts nothing.
enum class ByteClass : uint8_t { Invalid, Space, Letter, Digit, Slash, Punct };

struct ByteTables {
  std::array<ByteClass, 256> Class{};
  std::array<TokKind, 256> Punct{}; ///< for ByteClass::Punct bytes
};

constexpr ByteTables Bytes = [] {
  ByteTables T;
  for (unsigned C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T.Class[C] = ByteClass::Space;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    T.Class[C] = ByteClass::Letter;
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    T.Class[C] = ByteClass::Letter;
  T.Class['_'] = T.Class['$'] = ByteClass::Letter;
  for (unsigned C = '0'; C <= '9'; ++C)
    T.Class[C] = ByteClass::Digit;
  T.Class['/'] = ByteClass::Slash;
  const std::pair<char, TokKind> Puncts[] = {
      {'{', TokKind::LBrace},   {'}', TokKind::RBrace},
      {'(', TokKind::LParen},   {')', TokKind::RParen},
      {'[', TokKind::LBracket}, {']', TokKind::RBracket},
      {':', TokKind::Colon},    {';', TokKind::Semi},
      {',', TokKind::Comma},    {'.', TokKind::Dot},
      {'=', TokKind::Equal},    {'@', TokKind::At},
      {'*', TokKind::Star}};
  for (auto [C, Kind] : Puncts) {
    T.Class[static_cast<unsigned char>(C)] = ByteClass::Punct;
    T.Punct[static_cast<unsigned char>(C)] = Kind;
  }
  return T;
}();

inline ByteClass classOf(char C) {
  return Bytes.Class[static_cast<unsigned char>(C)];
}

/// "line:col" (1-based; a tab or CR is one column) of byte \p Offset.
std::string positionOf(std::string_view Src, size_t Offset) {
  unsigned Line = 1;
  size_t LineStart = 0;
  for (size_t I = 0; I != Offset; ++I)
    if (Src[I] == '\n') {
      ++Line;
      LineStart = I + 1;
    }
  return std::to_string(Line) + ":" + std::to_string(Offset - LineStart + 1);
}

/// Lexes all of \p Src into \p Out, ending with an Eof token; returns
/// false and sets \p Error on a character outside the alphabet.
bool lexAll(std::string_view Src, std::vector<Token> &Out,
            std::string &Error) {
  assert(Src.size() < UINT32_MAX && "offsets are 32-bit");
  const char *const Begin = Src.data();
  const char *const End = Begin + Src.size();
  auto OffsetOf = [Begin](const char *Ptr) {
    return static_cast<uint32_t>(Ptr - Begin);
  };
  // OIR averages a token per two to three bytes.
  Out.reserve(Src.size() / 2 + 1);
  std::vector<uint32_t> OpenBraces;
  for (const char *P = Begin; P != End;) {
    switch (classOf(*P)) {
    case ByteClass::Space:
      ++P;
      continue;
    case ByteClass::Letter: {
      const char *Start = P;
      while (++P != End && (classOf(*P) == ByteClass::Letter ||
                            classOf(*P) == ByteClass::Digit))
        ;
      std::string_view W(Start, static_cast<size_t>(P - Start));
      Out.push_back({OffsetOf(Start), static_cast<uint32_t>(W.size()), 0,
                     TokKind::Ident, classifyWord(W)});
      continue;
    }
    case ByteClass::Punct: {
      TokKind Kind = Bytes.Punct[static_cast<unsigned char>(*P)];
      auto Idx = static_cast<uint32_t>(Out.size());
      if (Kind == TokKind::LBrace) {
        OpenBraces.push_back(Idx);
      } else if (Kind == TokKind::RBrace && !OpenBraces.empty()) {
        Out[OpenBraces.back()].Close = Idx;
        OpenBraces.pop_back();
      }
      Out.push_back({OffsetOf(P), 1, 0, Kind, Kw::None});
      ++P;
      continue;
    }
    case ByteClass::Slash:
      if (P + 1 != End && P[1] == '/') { // a comment runs to the line end
        const void *NL = std::memchr(P, '\n', static_cast<size_t>(End - P));
        P = NL ? static_cast<const char *>(NL) : End;
        continue;
      }
      [[fallthrough]];
    case ByteClass::Digit:
    case ByteClass::Invalid:
      Error = positionOf(Src, OffsetOf(P)) + ": unexpected character '" +
              std::string(1, *P) + "'";
      return false;
    }
  }
  auto EofIdx = static_cast<uint32_t>(Out.size());
  for (uint32_t Open : OpenBraces)
    Out[Open].Close = EofIdx;
  Out.push_back({OffsetOf(End), 0, 0, TokKind::Eof, Kw::None});
  return true;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(std::string_view Src, std::vector<Token> Tokens, std::string &Error)
      : Src(Src), Tokens(std::move(Tokens)), Error(Error) {}

  std::unique_ptr<Module> run(const std::string &ModuleName) {
    M = std::make_unique<Module>(ModuleName);
    if (!passRegisterClasses() || !passSignatures() || !passBodies())
      return nullptr;
    return std::move(M);
  }

private:
  // -- Token-stream helpers -------------------------------------------------

  /// The cursor never moves past the final Eof token.
  const Token &peek() const { return Tokens[Cursor]; }

  const Token &take() {
    const Token &T = peek();
    if (T.Kind != TokKind::Eof)
      ++Cursor;
    return T;
  }

  bool at(TokKind K) const { return peek().Kind == K; }

  bool atKeyword(Kw K) const { return peek().Keyword == K; }

  bool consumeIf(TokKind K) {
    if (!at(K))
      return false;
    take();
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (consumeIf(K))
      return true;
    return fail(std::string("expected ") + What);
  }

  std::string_view text(const Token &T) const {
    return Src.substr(T.Offset, T.Len);
  }

  std::string positionOf(const Token &T) const {
    return ::positionOf(Src, T.Offset);
  }

  /// Sets a "line:col: Msg" diagnostic at \p T.
  bool failAt(const Token &T, const std::string &Msg) {
    Error = positionOf(T) + ": " + Msg;
    return false;
  }

  bool fail(const std::string &Msg) {
    const Token &T = peek();
    failAt(T, Msg);
    if (T.Kind == TokKind::Ident)
      Error += " (got '" + std::string(text(T)) + "')";
    return false;
  }

  /// Skips a balanced { ... } block; the cursor must be at '{'.
  bool skipBlock() {
    if (!at(TokKind::LBrace))
      return fail("expected '{'");
    Cursor = peek().Close;
    if (at(TokKind::Eof))
      return fail("unterminated block");
    take(); // '}'
    return true;
  }

  /// Skips tokens up to and including the next ';'.
  bool skipToSemi() {
    while (!at(TokKind::Eof))
      if (take().Kind == TokKind::Semi)
        return true;
    return fail("unterminated declaration");
  }

  // -- Pass 1: class names --------------------------------------------------

  bool passRegisterClasses() {
    Cursor = 0;
    // Each class with an extends clause, and its superclass-name token.
    std::vector<std::pair<ClassType *, const Token *>> PendingSupers;
    while (!at(TokKind::Eof)) {
      if (atKeyword(Kw::Class)) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected class name");
        std::string_view Name = text(take());
        if (M->findClass(Name))
          return fail("duplicate class '" + std::string(Name) + "'");
        const Token *Super = nullptr;
        if (atKeyword(Kw::Extends)) {
          take();
          if (!at(TokKind::Ident))
            return fail("expected superclass name");
          Super = &take();
        }
        ClassType *C = M->addClass(std::string(Name));
        if (Super)
          PendingSupers.emplace_back(C, Super);
        if (!skipBlock())
          return false;
        continue;
      }
      if (atKeyword(Kw::Global)) {
        if (!skipToSemi())
          return false;
        continue;
      }
      if (atKeyword(Kw::Func)) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected function name");
        take();
        if (!skipSignatureThenBlock())
          return false;
        continue;
      }
      return fail("expected 'class', 'global', or 'func'");
    }
    // Every class exists now, so every superclass name must resolve, and
    // no class may inherit from itself; pass 2 links the supers.
    SuperOf.assign(M->classes().size(), nullptr);
    std::vector<const Token *> SuperTokOf(M->classes().size(), nullptr);
    for (const auto &[C, Super] : PendingSupers) {
      SuperOf[C->getId()] = M->findClass(text(*Super));
      if (!SuperOf[C->getId()])
        return failAt(*Super, "unknown superclass '" +
                                  std::string(text(*Super)) + "' of class '" +
                                  C->getName() + "'");
      SuperTokOf[C->getId()] = Super;
    }
    // Walk each chain once: 1 = on the chain being walked, 2 = known to
    // end at a root.
    std::vector<uint8_t> State(M->classes().size(), 0);
    for (const auto &Pending : PendingSupers) {
      ClassType *X = Pending.first;
      for (; X && State[X->getId()] == 0; X = SuperOf[X->getId()])
        State[X->getId()] = 1;
      if (X && State[X->getId()] == 1)
        return failAt(*SuperTokOf[X->getId()],
                      "class '" + X->getName() + "' inherits from itself");
      for (X = Pending.first; X && State[X->getId()] == 1;
           X = SuperOf[X->getId()])
        State[X->getId()] = 2;
    }
    return true;
  }

  bool skipSignatureThenBlock() {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (!at(TokKind::RParen)) {
      if (at(TokKind::Eof))
        return fail("unterminated parameter list");
      take();
    }
    take(); // ')'
    if (consumeIf(TokKind::Colon))
      if (!skipType())
        return false;
    return skipBlock();
  }

  bool skipType() {
    if (!at(TokKind::Ident))
      return fail("expected type");
    take();
    while (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    return true;
  }

  // -- Type resolution ------------------------------------------------------

  Type *parseType() {
    if (!at(TokKind::Ident)) {
      fail("expected type");
      return nullptr;
    }
    const Token &Name = take();
    Type *Ty = nullptr;
    if (Name.Keyword == Kw::Int) {
      Ty = M->getIntType();
    } else {
      Ty = M->findClass(text(Name));
      if (!Ty) {
        fail("unknown type '" + std::string(text(Name)) + "'");
        return nullptr;
      }
    }
    while (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::RBracket, "']'"))
        return nullptr;
      Ty = M->getArrayType(Ty);
    }
    return Ty;
  }

  // -- Pass 2: globals, fields, signatures ----------------------------------

  bool passSignatures() {
    Cursor = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword(Kw::Class)) {
        take();
        ClassType *C = M->findClass(text(take()));
        assert(C && "class registered in pass 1");
        if (atKeyword(Kw::Extends)) {
          take();
          take();
          C->setSuperForParser(SuperOf[C->getId()]);
        }
        if (!expect(TokKind::LBrace, "'{'"))
          return false;
        while (!consumeIf(TokKind::RBrace)) {
          if (atKeyword(Kw::Field)) {
            if (!parseFieldDecl(C))
              return false;
          } else if (atKeyword(Kw::Method)) {
            if (!parseCallableSignature(C))
              return false;
          } else {
            return fail("expected 'field' or 'method'");
          }
        }
        continue;
      }
      if (atKeyword(Kw::Global)) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected global name");
        std::string_view Name = text(take());
        if (M->findGlobal(Name))
          return fail("duplicate global '" + std::string(Name) + "'");
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Type *Ty = parseType();
        if (!Ty)
          return false;
        bool IsAtomic = false;
        if (atKeyword(Kw::Atomic)) {
          take();
          IsAtomic = true;
        }
        M->addGlobal(std::string(Name), Ty, IsAtomic);
        if (!expect(TokKind::Semi, "';'"))
          return false;
        continue;
      }
      if (atKeyword(Kw::Func)) {
        if (!parseCallableSignature(nullptr))
          return false;
        continue;
      }
      O2_UNREACHABLE("pass 1 validated top-level structure");
    }
    return true;
  }

  bool parseFieldDecl(ClassType *C) {
    take(); // 'field'
    if (!at(TokKind::Ident))
      return fail("expected field name");
    std::string_view Name = text(take());
    if (C->findField(Name))
      return fail("duplicate field '" + std::string(Name) + "'");
    if (!expect(TokKind::Colon, "':'"))
      return false;
    Type *Ty = parseType();
    if (!Ty)
      return false;
    bool IsAtomic = false;
    if (atKeyword(Kw::Atomic)) {
      take();
      IsAtomic = true;
    }
    C->addField(std::string(Name), Ty, IsAtomic);
    return expect(TokKind::Semi, "';'");
  }

  /// Parses a 'method' or 'func' signature, creating the Function with its
  /// parameters, then skips the body (parsed in pass 3).
  bool parseCallableSignature(ClassType *C) {
    take(); // 'method' or 'func'
    if (!at(TokKind::Ident))
      return fail("expected function name");
    std::string_view Name = text(take());
    if (!C && M->findFunction(Name))
      return fail("duplicate function '" + std::string(Name) + "'");
    if (C)
      for (Function *Existing : C->methods())
        if (Existing->getName() == Name)
          return fail("duplicate method '" + std::string(Name) + "'");

    if (!expect(TokKind::LParen, "'('"))
      return false;
    struct Param {
      std::string_view Name;
      Type *Ty;
    };
    SmallVector<Param, 4> Params;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected parameter name");
        std::string_view PName = text(take());
        bool Duplicate = C && PName == "this";
        for (const Param &P : Params)
          Duplicate |= P.Name == PName;
        if (Duplicate)
          return fail("duplicate parameter '" + std::string(PName) + "'");
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Type *PTy = parseType();
        if (!PTy)
          return false;
        Params.push_back({PName, PTy});
      } while (consumeIf(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Type *RetTy = nullptr;
    if (consumeIf(TokKind::Colon)) {
      RetTy = parseType();
      if (!RetTy)
        return false;
    }

    Function *F = M->addFunction(std::string(Name), RetTy);
    if (C) {
      C->addMethod(F);
      F->addParam("this", C);
    }
    for (const Param &P : Params)
      F->addParam(std::string(P.Name), P.Ty);
    BodyOrder.push_back(F);
    return skipBlock();
  }

  // -- Pass 3: bodies -------------------------------------------------------

  bool passBodies() {
    Cursor = 0;
    size_t NextBody = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword(Kw::Class)) {
        take();
        take(); // name
        if (atKeyword(Kw::Extends)) {
          take();
          take();
        }
        if (!expect(TokKind::LBrace, "'{'"))
          return false;
        while (!consumeIf(TokKind::RBrace)) {
          if (atKeyword(Kw::Field)) {
            if (!skipToSemi())
              return false;
          } else {
            if (!skipCallableHead())
              return false;
            if (!parseBody(BodyOrder[NextBody++]))
              return false;
          }
        }
        continue;
      }
      if (atKeyword(Kw::Global)) {
        if (!skipToSemi())
          return false;
        continue;
      }
      // func
      if (!skipCallableHead())
        return false;
      if (!parseBody(BodyOrder[NextBody++]))
        return false;
    }
    return true;
  }

  /// Skips 'method'/'func' NAME (params) [: type], stopping at '{'.
  bool skipCallableHead() {
    take(); // 'method' or 'func'
    take(); // name
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (!at(TokKind::RParen))
      take();
    take();
    if (consumeIf(TokKind::Colon))
      if (!skipType())
        return false;
    return true;
  }

  bool parseBody(Function *F) {
    IRBuilder B(*M, F);
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    return parseStmtsUntilRBrace(B, F);
  }

  bool parseStmtsUntilRBrace(IRBuilder &B, Function *F) {
    while (!consumeIf(TokKind::RBrace)) {
      if (at(TokKind::Eof))
        return fail("unterminated body");
      if (!parseStmt(B, F))
        return false;
    }
    return true;
  }

  Variable *lookupVar(Function *F, const Token &T) {
    Variable *V = F->findVariable(text(T));
    if (!V)
      failAt(T, "unknown variable '" + std::string(text(T)) + "'");
    return V;
  }

  /// Parses "(a, b, c)" into variables of \p F.
  bool parseArgs(Function *F, SmallVectorImpl<Variable *> &Args) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected argument variable");
        Variable *V = lookupVar(F, take());
        if (!V)
          return false;
        Args.push_back(V);
      } while (consumeIf(TokKind::Comma));
    }
    return expect(TokKind::RParen, "')'");
  }

  Global *parseGlobalName() {
    take(); // '@'
    if (!at(TokKind::Ident)) {
      fail("expected global name");
      return nullptr;
    }
    std::string_view Name = text(take());
    Global *G = M->findGlobal(Name);
    if (!G)
      fail("unknown global '" + std::string(Name) + "'");
    return G;
  }

  bool parseStmt(IRBuilder &B, Function *F) {
    // Keyword statements.
    switch (peek().Keyword) {
    case Kw::Var: {
      take();
      if (!at(TokKind::Ident))
        return fail("expected variable name");
      std::string_view Name = text(take());
      if (F->findVariable(Name))
        return fail("duplicate variable '" + std::string(Name) + "'");
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type *Ty = parseType();
      if (!Ty)
        return false;
      F->addLocal(std::string(Name), Ty);
      return expect(TokKind::Semi, "';'");
    }
    case Kw::Loop:
      take();
      if (!expect(TokKind::LBrace, "'{'"))
        return false;
      B.beginLoop();
      if (!parseStmtsUntilRBrace(B, F))
        return false;
      B.endLoop();
      return true;
    case Kw::Spawn: {
      take();
      if (!at(TokKind::Ident))
        return fail("expected spawn receiver");
      Variable *Recv = lookupVar(F, take());
      if (!Recv)
        return false;
      if (!expect(TokKind::Dot, "'.'"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected entry method name");
      std::string_view Entry = text(take());
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(F, Args))
        return false;
      B.spawn(Recv, Entry, Args);
      return expect(TokKind::Semi, "';'");
    }
    case Kw::Join: {
      take();
      if (!at(TokKind::Ident))
        return fail("expected join receiver");
      Variable *Recv = lookupVar(F, take());
      if (!Recv)
        return false;
      B.join(Recv);
      return expect(TokKind::Semi, "';'");
    }
    case Kw::Acquire:
    case Kw::Release: {
      bool IsAcquire = take().Keyword == Kw::Acquire;
      if (!at(TokKind::Ident))
        return fail("expected lock variable");
      Variable *L = lookupVar(F, take());
      if (!L)
        return false;
      if (IsAcquire)
        B.acquire(L);
      else
        B.release(L);
      return expect(TokKind::Semi, "';'");
    }
    case Kw::Return: {
      take();
      Variable *V = nullptr;
      if (at(TokKind::Ident)) {
        V = lookupVar(F, take());
        if (!V)
          return false;
      }
      B.ret(V);
      return expect(TokKind::Semi, "';'");
    }
    default:
      break;
    }
    // Global store: @g = x;
    if (at(TokKind::At)) {
      Global *G = parseGlobalName();
      if (!G)
        return false;
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      B.globalStore(G, Src);
      return expect(TokKind::Semi, "';'");
    }

    // Remaining forms start with an identifier.
    if (!at(TokKind::Ident))
      return fail("expected statement");
    const Token &First = take();

    // ID . ID ( ... ) ;     virtual call, result dropped
    // ID . ID = ID ;        field store
    // ID . ID missing '='   error
    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      const Token &Member = take();
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(F, Args))
          return false;
        if (!makeVirtualCall(B, nullptr, Base, text(Member), Args))
          return false;
        return expect(TokKind::Semi, "';'");
      }
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      Field *Fld = resolveFieldOrFail(Base, Member);
      if (!Fld)
        return false;
      B.fieldStore(Base, Fld, Src);
      return expect(TokKind::Semi, "';'");
    }

    // ID [ * ] = ID ;       array store
    if (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::Star, "'*'") || !expect(TokKind::RBracket, "']'") ||
          !expect(TokKind::Equal, "'='"))
        return false;
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      B.arrayStore(Base, Src);
      return expect(TokKind::Semi, "';'");
    }

    // ID ( ... ) ;           direct call, result dropped
    if (at(TokKind::LParen)) {
      if (!parseDirectCall(B, F, nullptr, First))
        return false;
      return expect(TokKind::Semi, "';'");
    }

    // ID = rhs ;
    if (!expect(TokKind::Equal, "'='"))
      return false;
    Variable *Target = lookupVar(F, First);
    if (!Target)
      return false;
    if (!parseRhs(B, F, Target))
      return false;
    return expect(TokKind::Semi, "';'");
  }

  /// Parses the arguments of a call to the free function named by \p Name
  /// and emits the call; the cursor is at '('.
  bool parseDirectCall(IRBuilder &B, Function *F, Variable *Target,
                       const Token &Name) {
    SmallVector<Variable *, 4> Args;
    if (!parseArgs(F, Args))
      return false;
    Function *Callee = M->findFunction(text(Name));
    if (!Callee)
      return fail("unknown function '" + std::string(text(Name)) + "'");
    B.callDirect(Target, Callee,
                 ArrayRef<Variable *>(Args.data(), Args.size()));
    return true;
  }

  Field *resolveFieldOrFail(Variable *Base, const Token &Member) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C) {
      failAt(Member,
             "field access on non-class variable '" + Base->getName() + "'");
      return nullptr;
    }
    Field *Fld = C->findField(text(Member));
    if (!Fld)
      failAt(Member, "class '" + C->getName() + "' has no field '" +
                         std::string(text(Member)) + "'");
    return Fld;
  }

  bool makeVirtualCall(IRBuilder &B, Variable *Target, Variable *Base,
                       std::string_view MethodName,
                       const SmallVectorImpl<Variable *> &Args) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C)
      return fail("virtual call on non-class variable '" + Base->getName() +
                  "'");
    B.call(Target, Base, MethodName,
           ArrayRef<Variable *>(Args.data(), Args.size()));
    return true;
  }

  bool parseRhs(IRBuilder &B, Function *F, Variable *Target) {
    if (atKeyword(Kw::New)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected class name after 'new'");
      std::string_view CName = text(take());
      ClassType *C = M->findClass(CName);
      if (!C)
        return fail("unknown class '" + std::string(CName) + "'");
      SmallVector<Variable *, 4> Args;
      if (at(TokKind::LParen))
        if (!parseArgs(F, Args))
          return false;
      B.alloc(Target, C, ArrayRef<Variable *>(Args.data(), Args.size()));
      return true;
    }
    if (atKeyword(Kw::Newarray)) {
      take();
      Type *Elem = parseType();
      if (!Elem)
        return false;
      B.allocArray(Target, M->getArrayType(Elem));
      return true;
    }
    if (at(TokKind::At)) {
      Global *G = parseGlobalName();
      if (!G)
        return false;
      B.globalLoad(Target, G);
      return true;
    }
    if (!at(TokKind::Ident))
      return fail("expected expression");
    const Token &First = take();

    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      const Token &Member = take();
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(F, Args))
          return false;
        return makeVirtualCall(B, Target, Base, text(Member), Args);
      }
      Field *Fld = resolveFieldOrFail(Base, Member);
      if (!Fld)
        return false;
      B.fieldLoad(Target, Base, Fld);
      return true;
    }
    if (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::Star, "'*'") || !expect(TokKind::RBracket, "']'"))
        return false;
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      B.arrayLoad(Target, Base);
      return true;
    }
    if (at(TokKind::LParen))
      return parseDirectCall(B, F, Target, First);
    // Plain copy.
    Variable *Src = lookupVar(F, First);
    if (!Src)
      return false;
    B.assign(Target, Src);
    return true;
  }

  std::string_view Src;
  std::vector<Token> Tokens;
  std::string &Error;
  size_t Cursor = 0;
  std::unique_ptr<Module> M;
  /// Class ID -> the superclass its extends clause names, or null.
  std::vector<ClassType *> SuperOf;
  std::vector<Function *> BodyOrder;
};

} // namespace

std::unique_ptr<Module> o2::parseModule(std::string_view Source,
                                        std::string &Error,
                                        const std::string &ModuleName) {
  std::vector<Token> Tokens;
  if (!lexAll(Source, Tokens, Error))
    return nullptr;
  Parser P(Source, std::move(Tokens), Error);
  return P.run(ModuleName);
}
