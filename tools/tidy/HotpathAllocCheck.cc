#include "HotpathAllocCheck.h"

#include "LintAllow.h"
#include "clang/AST/Attr.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace magesim {

static bool IsHotPath(const FunctionDecl *FD) {
  if (FD == nullptr)
    return false;
  for (const FunctionDecl *RD : FD->redecls())
    for (const auto *A : RD->specific_attrs<AnnotateAttr>())
      if (A->getAnnotation() == "magesim_hot_path")
        return true;
  return false;
}

HotpathAllocCheck::HotpathAllocCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      AllowedContainersRegexStr(Options.get(
          "AllowedContainersRegex",
          "^(RingQueue|DAryHeap|TimerWheel|IntrusiveList|VpnSet|"
          "SlabAllocator|FixedVector|Histogram)$")),
      AllowedContainersRegex(AllowedContainersRegexStr) {}

void HotpathAllocCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "AllowedContainersRegex", AllowedContainersRegexStr);
}

void HotpathAllocCheck::registerMatchers(MatchFinder *Finder) {
  Finder->addMatcher(
      cxxNewExpr(forFunction(functionDecl().bind("f"))).bind("new"), this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(
                   hasAnyName("::std::make_shared", "::std::make_unique"))),
               forFunction(functionDecl().bind("f")))
          .bind("make"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(hasAnyName("push_back", "emplace_back",
                                          "emplace", "insert", "resize",
                                          "reserve", "append", "push_front"))),
          forFunction(functionDecl().bind("f")))
          .bind("grow"),
      this);
}

void HotpathAllocCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *F = Result.Nodes.getNodeAs<FunctionDecl>("f");
  if (!IsHotPath(F))
    return;
  const SourceManager &SM = *Result.SourceManager;

  const Expr *Site = nullptr;
  StringRef Kind;
  if (const auto *New = Result.Nodes.getNodeAs<CXXNewExpr>("new")) {
    Site = New;
    Kind = "new-expression";
  } else if (const auto *Make = Result.Nodes.getNodeAs<CallExpr>("make")) {
    Site = Make;
    Kind = "make_shared/make_unique";
  } else if (const auto *Grow =
                 Result.Nodes.getNodeAs<CXXMemberCallExpr>("grow")) {
    // Exempt magesim's own flat structures: their growth paths are
    // amortized/pre-reserved by contract and individually tested.
    const CXXRecordDecl *RD = Grow->getRecordDecl();
    if (RD != nullptr && AllowedContainersRegex.match(RD->getName()))
      return;
    Site = Grow;
    Kind = "growth-capable container mutation";
  }
  if (Site == nullptr)
    return;
  SourceLocation Loc = Site->getBeginLoc();
  if (Loc.isInvalid() || SM.isInSystemHeader(Loc))
    return;
  if (LineHasAllow(SM, Loc, "hotpath-alloc"))
    return;
  diag(Loc, "%0 inside MAGESIM_HOT_PATH function '%1'; the fault/evict hot "
            "path must not allocate in steady state — use the slab allocator "
            "/ pre-reserved flat structures, or justify with "
            "'// magesim-lint: allow(hotpath-alloc): <reason>'")
      << Kind << (F->getIdentifier() ? F->getName() : StringRef("<function>"));
}

}  // namespace magesim
}  // namespace tidy
}  // namespace clang
