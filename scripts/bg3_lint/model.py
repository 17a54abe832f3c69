"""Shared C++ source model for bg3-lint.

A deliberately lightweight frontend: a comment/string-aware tokenizer plus a
structural parser that recovers exactly what the four passes need from this
codebase's (Google-style, macro-annotated) C++ — namespaces, classes,
function declarations/definitions with their annotation macros, member
variables, call sites, RAII lock-guard scopes, and explicit Lock()/Unlock()
pairs. It is not a general C++ parser; it leans on the project's idiom
(one statement per declaration, annotation macros spelled literally,
bg3::Mutex / bg3::SharedMutex wrappers for every latch). The fixture suite
under scripts/bg3_lint/tests/ pins its behavior per pass.

Known, documented blind spots (see DESIGN.md §5.6):
  - lambda bodies are indexed as separate synthetic functions; calls inside
    a lambda are *not* attributed to the enclosing function, because most
    lambdas here are deferred work (worker-thread bodies, retry ops). The
    blocking executor (RetryWithBackoff) is itself BG3_BLOCKING, so the
    discipline still holds at the dispatch site.
  - calls through function pointers / std::function are invisible.
  - templates are analyzed textually, once, not per instantiation.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
          "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##")

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "break",
    "continue", "return", "goto", "try", "catch", "throw", "new", "delete",
    "sizeof", "alignof", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "co_await", "co_return", "co_yield",
}

# Specifier-ish tokens that may precede a return type or member type.
SPECIFIERS = {
    "virtual", "static", "inline", "constexpr", "consteval", "constinit",
    "explicit", "friend", "mutable", "extern", "typename", "using",
    "BG3_NODISCARD", "BG3_BLOCKING", "BG3_NO_BLOCKING",
}


@dataclass
class Token:
    kind: str  # "id" | "num" | "str" | "chr" | "p" (punctuation)
    text: str
    line: int

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{self.text}@{self.line}"


def tokenize(src: str):
    """Tokenizes C++ source, dropping comments and preprocessor directives."""
    toks = []
    i, n, line = 0, len(src), 1
    at_line_start = True
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip the logical line (with \-splices).
            while i < n:
                if src[i] == "\n":
                    if src[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            continue
        at_line_start = False
        if c == "/" and i + 1 < n:
            if src[i + 1] == "/":
                while i < n and src[i] != "\n":
                    i += 1
                continue
            if src[i + 1] == "*":
                end = src.find("*/", i + 2)
                if end == -1:
                    end = n
                line += src.count("\n", i, end)
                i = end + 2
                continue
        if c == '"' or (c == "R" and src[i:i + 2] == 'R"'):
            if c == "R":
                # Raw string: R"delim( ... )delim"
                m = re.match(r'R"([^(\s]*)\(', src[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = src.find(close, i + m.end())
                    if end == -1:
                        end = n
                    else:
                        end += len(close)
                    line += src.count("\n", i, end)
                    toks.append(Token("str", src[i:end], line))
                    i = end
                    continue
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\\":
                    j += 1
                j += 1
            toks.append(Token("str", src[i:j + 1], line))
            line += src.count("\n", i, j)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and src[j] != "'":
                if src[j] == "\\":
                    j += 1
                j += 1
            toks.append(Token("chr", src[i:j + 1], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("id", src[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isalnum() or src[j] in "._'"
                             or (src[j] in "+-" and src[j - 1] in "eEpP")):
                j += 1
            toks.append(Token("num", src[i:j], line))
            i = j
            continue
        for p in PUNCT3:
            if src.startswith(p, i):
                toks.append(Token("p", p, line))
                i += 3
                break
        else:
            for p in PUNCT2:
                if src.startswith(p, i):
                    toks.append(Token("p", p, line))
                    i += 2
                    break
            else:
                toks.append(Token("p", c, line))
                i += 1
    return toks


# ---------------------------------------------------------------------------
# Index entities
# ---------------------------------------------------------------------------


@dataclass
class Function:
    """A function declaration or definition (methods included)."""
    name: str                  # unqualified
    cls: str | None            # enclosing (or qualifying) class, if any
    ns: str                    # enclosing namespace path ("bg3::cloud")
    file: str
    line: int
    ret: list[str] = field(default_factory=list)     # return-type tokens
    params: str = ""                                 # raw parameter text
    annotations: dict = field(default_factory=dict)  # macro -> arg text
    body: tuple | None = None  # (start, end) token idxs into its file, or None
    is_lambda: bool = False

    @property
    def qname(self) -> str:
        parts = [p for p in (self.ns, self.cls, self.name) if p]
        return "::".join(parts)

    @property
    def key(self):
        return (self.cls, self.name)


@dataclass
class MutexMember:
    cls: str            # owning class (innermost)
    name: str           # member name
    mtype: str          # "Mutex" | "SharedMutex"
    file: str
    line: int

    @property
    def site(self) -> str:
        return f"{self.cls}::{self.name}"


@dataclass
class CallSite:
    name: str            # callee name (last identifier)
    recv: list[str]      # receiver chain, e.g. ["store_"] for store_->Append
    args: str            # raw argument text (top-level of the call parens)
    line: int
    tok: int             # index of the callee-name token in the file stream


@dataclass
class LockRegion:
    """Token range [start, end) of a function body where `site` is held."""
    site: str            # resolved "Class::member" or "?<expr>"
    expr: str            # source spelling of the lock expression
    start: int
    end: int
    line: int
    kind: str            # "guard" | "explicit" | "requires"
    cap: str = "bg3"     # "bg3" (annotated Mutex/SharedMutex) | "std"
    var: str = ""        # guard variable name (RAII guards only)


ANNOTATION_MACROS = {
    "BG3_BLOCKING", "BG3_NO_BLOCKING", "BG3_REQUIRES", "BG3_REQUIRES_SHARED",
    "BG3_ACQUIRE", "BG3_ACQUIRE_SHARED", "BG3_RELEASE", "BG3_RELEASE_SHARED",
    "BG3_TRY_ACQUIRE", "BG3_TRY_ACQUIRE_SHARED", "BG3_EXCLUDES",
    "BG3_ASSERT_CAPABILITY", "BG3_ASSERT_SHARED_CAPABILITY",
    "BG3_RETURN_CAPABILITY", "BG3_NO_THREAD_SAFETY_ANALYSIS",
    "BG3_NODISCARD", "BG3_GUARDED_BY", "BG3_PT_GUARDED_BY",
    "BG3_ACQUIRED_BEFORE", "BG3_ACQUIRED_AFTER", "BG3_CAPABILITY",
    "BG3_SCOPED_CAPABILITY", "override", "final", "noexcept", "const",
}

BG3_GUARDS = {"MutexLock": "Mutex",
              "WriterMutexLock": "SharedMutex",
              "ReaderMutexLock": "SharedMutex"}
STD_GUARDS = {"lock_guard", "unique_lock", "shared_lock", "scoped_lock"}
BG3_MUTEX_TYPES = {"Mutex", "SharedMutex"}


class FileModel:
    """Tokenized + structurally indexed view of one source file."""

    def __init__(self, path: str, text: str | None = None):
        self.path = path
        if text is None:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        self.text = text
        self.toks = tokenize(text)
        self.functions: list[Function] = []
        self.mutex_members: list[MutexMember] = []
        self.member_types: dict = {}   # (cls, member) -> type string
        self._match = self._match_brackets()
        self._parse_structure()

    # -- bracket matching ---------------------------------------------------

    def _match_brackets(self):
        """idx of every ( { [ -> idx of its matching closer (token index)."""
        match = {}
        stack = []
        pairs = {"(": ")", "{": "}", "[": "]"}
        closers = {")": "(", "}": "{", "]": "["}
        for i, t in enumerate(self.toks):
            if t.kind != "p":
                continue
            if t.text in pairs:
                stack.append((t.text, i))
            elif t.text in closers:
                # Pop until the matching opener kind (tolerates template <>
                # noise since we do not track angle brackets here).
                while stack:
                    kind, j = stack.pop()
                    if kind == closers[t.text]:
                        match[j] = i
                        break
        return match

    def close_of(self, i: int) -> int:
        """Matching closer for the opener at token i (end of file if unmatched)."""
        return self._match.get(i, len(self.toks) - 1)

    # -- structural parse ---------------------------------------------------

    def _parse_structure(self):
        toks = self.toks
        i = 0
        # Scope stack entries: (kind, name, close_idx). kind: ns|class|skip
        scopes = []
        stmt_start = 0  # first token of the pending declaration

        def ns_path():
            return "::".join(s[1] for s in scopes if s[0] == "ns" and s[1])

        def cur_class():
            for s in reversed(scopes):
                if s[0] == "class":
                    return s[1]
            return None

        n = len(toks)
        while i < n:
            # Pop finished scopes.
            while scopes and i >= scopes[-1][2]:
                scopes.pop()
            t = toks[i]
            if t.kind == "p" and t.text == "{":
                close = self.close_of(i)
                pend = toks[stmt_start:i]
                kind, name = self._classify_brace(pend)
                if kind == "fn":
                    fn = self._make_function(pend, ns_path(), cur_class())
                    if fn is not None:
                        fn.body = (i + 1, close)
                        self.functions.append(fn)
                        self._index_lambdas(fn)
                    i = close + 1
                    stmt_start = i
                    continue
                if kind in ("ns", "class"):
                    scopes.append((kind, name, close))
                    i += 1
                    stmt_start = i
                    continue
                # Anything else: skip the whole brace group.
                i = close + 1
                stmt_start = i
                continue
            if t.kind == "p" and t.text == ";":
                pend = toks[stmt_start:i]
                self._handle_declaration(pend, ns_path(), cur_class())
                i += 1
                stmt_start = i
                continue
            if t.kind == "p" and t.text == "}":
                i += 1
                stmt_start = i
                continue
            if (t.kind == "id" and t.text in ("public", "private", "protected")
                    and i + 1 < n and toks[i + 1].text == ":"):
                i += 2
                stmt_start = i
                continue
            i += 1

    def _classify_brace(self, pend: list[Token]):
        """What does a `{` following tokens `pend` open?"""
        texts = [t.text for t in pend]
        if not texts:
            return ("skip", None)
        if "namespace" in texts:
            k = texts.index("namespace")
            name = []
            for t in texts[k + 1:]:
                if t == "::" or re.match(r"^\w+$", t):
                    name.append(t)
                else:
                    break
            return ("ns", "".join(name))
        if "enum" in texts:
            return ("skip", None)
        if "=" in texts and "(" not in texts[:texts.index("=")]:
            return ("skip", None)  # brace initializer
        if ("class" in texts or "struct" in texts or "union" in texts):
            # Distinguish a type definition from e.g. a function returning a
            # struct: type defs have no parameter list before the brace
            # except attribute macros right after the keyword.
            k = texts.index("class") if "class" in texts else (
                texts.index("struct") if "struct" in texts
                else texts.index("union"))
            name = self._class_name(pend[k + 1:])
            if name is not None:
                return ("class", name)
        # Function definition: ident followed by a top-level (...) group,
        # with only qualifiers / ctor-init material after it.
        if self._looks_like_function(pend):
            return ("fn", None)
        return ("skip", None)

    def _class_name(self, toks_after_kw: list[Token]):
        """Class name: first plain identifier not consumed by an attribute."""
        i = 0
        name = None
        while i < len(toks_after_kw):
            t = toks_after_kw[i]
            if t.kind == "id":
                if t.text in ("final", "alignas"):
                    i += 1
                    continue
                # Attribute macro (BG3_CAPABILITY("x")): ident + (...) group.
                if (t.text in ANNOTATION_MACROS
                        and i + 1 < len(toks_after_kw)
                        and toks_after_kw[i + 1].text == "("):
                    depth = 0
                    i += 1
                    while i < len(toks_after_kw):
                        if toks_after_kw[i].text == "(":
                            depth += 1
                        elif toks_after_kw[i].text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        i += 1
                    i += 1
                    continue
                name = t.text
                break
            if t.text in (":", "{"):
                break
            i += 1
        return name

    def _looks_like_function(self, pend: list[Token]) -> bool:
        depth = 0
        saw_params = False
        for j, t in enumerate(pend):
            if t.text == "(":
                if depth == 0 and j > 0 and pend[j - 1].kind == "id" \
                        and pend[j - 1].text not in KEYWORDS:
                    saw_params = True
                depth += 1
            elif t.text == ")":
                depth -= 1
        if not saw_params:
            return False
        if pend and pend[0].text in ("if", "for", "while", "switch", "catch"):
            return False
        return True

    # -- declarations / definitions -----------------------------------------

    def _make_function(self, pend: list[Token], ns: str, cls: str | None):
        """Builds a Function from the tokens preceding a definition's `{`."""
        # Find the parameter list: the last top-level "ident (" group that is
        # not an annotation macro and not part of the ctor-init list.
        groups = []  # (name_idx, open_idx)
        depth = 0
        colon_at = None
        for j, t in enumerate(pend):
            if t.text == "(":
                if depth == 0 and j > 0 and pend[j - 1].kind == "id":
                    groups.append((j - 1, j))
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == ":" and depth == 0 and colon_at is None:
                prev = pend[j - 1].text if j else ""
                nxt = pend[j + 1].text if j + 1 < len(pend) else ""
                if prev != ":" and nxt != ":":  # not part of "::"
                    colon_at = j
        # Parameter group = last candidate group before the ctor-init colon
        # whose name is not an annotation macro.
        # Tokens that look like `name(` but never are the function name:
        # trailing-return-type machinery, operators, specifiers.
        non_names = {"decltype", "noexcept", "sizeof", "alignof", "requires",
                     "alignas", "throw"} | KEYWORDS
        arrow_at = None
        depth = 0
        for j, t in enumerate(pend):
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == "->" and depth == 0 and arrow_at is None:
                arrow_at = j
        cand = None
        for name_idx, open_idx in groups:
            if colon_at is not None and open_idx > colon_at:
                continue
            if arrow_at is not None and open_idx > arrow_at:
                continue  # part of a trailing return type
            if pend[name_idx].text in ANNOTATION_MACROS:
                continue
            if pend[name_idx].text in non_names:
                continue
            cand = (name_idx, open_idx)
        if cand is None:
            return None
        name_idx, open_idx = cand
        name = pend[name_idx].text
        # Receiver qualification: Class::Name in out-of-line definitions.
        qual_cls = cls
        k = name_idx - 1
        quals = []
        while k >= 1 and pend[k].text == "::" and pend[k - 1].kind == "id":
            quals.append(pend[k - 1].text)
            k -= 2
        if quals:
            qual_cls = quals[0]  # innermost qualifier is the class
            if qual_cls and qual_cls[0].islower() and "_" not in qual_cls:
                # Heuristic: lowercase qualifiers are namespaces (bg3::wal).
                qual_cls = cls
        # Destructor "~Class" -> skip the tilde name mangling, keep as-is.
        if k >= 0 and pend[k].text == "~":
            name = "~" + name
        # Parameter text.
        close = None
        depth = 0
        for j in range(open_idx, len(pend)):
            if pend[j].text == "(":
                depth += 1
            elif pend[j].text == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
        params = " ".join(t.text for t in pend[open_idx + 1:close]) \
            if close else ""
        # Return type tokens: everything before the (qualified) name, minus
        # specifiers and template intro.
        ret = []
        j = 0
        limit = k + 1 if quals or name.startswith("~") else name_idx
        while j < limit:
            t = pend[j]
            if t.text == "template":
                # skip template<...>
                depth_ab = 0
                j += 1
                while j < limit:
                    if pend[j].text == "<":
                        depth_ab += 1
                    elif pend[j].text == ">":
                        depth_ab -= 1
                        if depth_ab == 0:
                            break
                    j += 1
                j += 1
                continue
            if t.kind == "id" and t.text in SPECIFIERS:
                j += 1
                continue
            ret.append(t.text)
            j += 1
        ann = self._annotations(pend, close if close is not None else 0)
        for t in pend[:name_idx]:
            if t.kind == "id" and t.text in ("BG3_BLOCKING", "BG3_NO_BLOCKING",
                                             "BG3_NODISCARD"):
                ann.setdefault(t.text, "")
        line = pend[name_idx].line
        return Function(name=name, cls=qual_cls, ns=ns, file=self.path,
                        line=line, ret=ret, params=params, annotations=ann)

    def _annotations(self, pend: list[Token], after: int):
        """Annotation macros appearing after token index `after`."""
        ann = {}
        j = after
        while j < len(pend):
            t = pend[j]
            if t.kind == "id" and (t.text.startswith("BG3_")
                                   or t.text in ("const", "noexcept",
                                                 "override", "final")):
                arg = ""
                if j + 1 < len(pend) and pend[j + 1].text == "(":
                    depth = 0
                    kk = j + 1
                    start = kk + 1
                    while kk < len(pend):
                        if pend[kk].text == "(":
                            depth += 1
                        elif pend[kk].text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        kk += 1
                    arg = " ".join(x.text for x in pend[start:kk])
                    j = kk
                ann[t.text] = arg
            j += 1
        return ann

    def _handle_declaration(self, pend: list[Token], ns: str,
                            cls: str | None):
        if not pend:
            return
        texts = [t.text for t in pend]
        if texts[0] in ("using", "typedef", "friend", "template") \
                and "(" not in texts:
            return
        # Method / function declaration (has a parameter group).
        if self._looks_like_function(pend) and "=" not in self._top_level(
                pend, stop_at_paren=True):
            fn = self._make_function(pend, ns, cls)
            if fn is not None:
                self.functions.append(fn)
                return
        if "=" in texts and texts.index("=") < len(texts) and \
                self._looks_like_function(pend):
            # "= default" / "= delete" / "= 0" declarations still carry
            # annotations worth indexing.
            fn = self._make_function(pend, ns, cls)
            if fn is not None:
                self.functions.append(fn)
                return
        if cls is None:
            return
        # Member variable: [mutable] Type name [init].
        idx = 0
        while idx < len(texts) and texts[idx] in SPECIFIERS:
            idx += 1
        rest = pend[idx:]
        if len(rest) >= 2 and rest[0].kind == "id":
            type_toks = []
            j = 0
            while j < len(rest):
                t = rest[j]
                if t.kind == "id" or t.text in ("::", "<", ">", ",", "*", "&"):
                    type_toks.append(t.text)
                    j += 1
                else:
                    break
            # name = last identifier in the collected run
            idents = [x for x in type_toks if re.match(r"^\w+$", x)]
            if len(idents) >= 2:
                name = idents[-1]
                type_str = " ".join(type_toks[:len(type_toks) - 1 -
                                              type_toks[::-1].index(name)]) \
                    if name in type_toks else ""
                self.member_types[(cls, name)] = type_str
                base = [x for x in idents[:-1]]
                if base and base[-1] in BG3_MUTEX_TYPES and \
                        (len(base) == 1 or base[-2] in ("bg3",)):
                    self.mutex_members.append(MutexMember(
                        cls=cls, name=name, mtype=base[-1],
                        file=self.path, line=rest[0].line))

    def _top_level(self, pend: list[Token], stop_at_paren=False):
        out = []
        depth = 0
        for t in pend:
            if t.text in "([{":
                depth += 1
                if stop_at_paren and t.text == "(" and depth == 1:
                    break
                continue
            if t.text in ")]}":
                depth -= 1
                continue
            if depth == 0:
                out.append(t.text)
        return out

    # -- lambdas -------------------------------------------------------------

    def _index_lambdas(self, fn: Function):
        """Registers lambda bodies inside fn as synthetic child functions."""
        start, end = fn.body
        toks = self.toks
        i = start
        while i < end:
            t = toks[i]
            if t.kind == "p" and t.text == "[":
                prev = toks[i - 1] if i > 0 else None
                is_subscript = prev is not None and (
                    prev.kind in ("id", "num")
                    and prev.text not in KEYWORDS
                    or prev.text in (")", "]"))
                close_b = self.close_of(i)
                if not is_subscript and close_b < end:
                    j = close_b + 1
                    # optional (params) group, optional specifiers
                    if j < end and toks[j].text == "(":
                        j = self.close_of(j) + 1
                    while j < end and toks[j].kind == "id" and \
                            toks[j].text in ("mutable", "noexcept", "constexpr"):
                        j += 1
                    if j < end and toks[j].text == "->":
                        while j < end and toks[j].text != "{":
                            j += 1
                    if j < end and toks[j].text == "{":
                        body_close = self.close_of(j)
                        lam = Function(
                            name=f"<lambda@{t.line}>", cls=fn.cls, ns=fn.ns,
                            file=self.path, line=t.line, is_lambda=True)
                        lam.body = (j + 1, body_close)
                        self.functions.append(lam)
                        self._index_lambdas(lam)
                        i = body_close + 1
                        continue
            i += 1

    # -- body helpers --------------------------------------------------------

    def direct_ranges(self, fn: Function):
        """Body token ranges excluding nested lambda bodies."""
        start, end = fn.body
        holes = sorted(
            (f.body[0] - 1, f.body[1] + 1) for f in self.functions
            if f.is_lambda and f.body and start < f.body[0] < end
            # only directly nested (not lambdas inside lambdas)
        )
        merged = []
        for h in holes:
            if merged and h[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], h[1]))
            else:
                merged.append(h)
        ranges = []
        cur = start
        for h0, h1 in merged:
            if h0 > cur:
                ranges.append((cur, h0))
            cur = max(cur, h1)
        if cur < end:
            ranges.append((cur, end))
        return ranges

    def statements(self, fn: Function):
        """Top-level-ish statements: token slices split on ; { } outside
        parens, lambda bodies excluded."""
        out = []
        for r0, r1 in self.direct_ranges(fn):
            i = r0
            stmt = []
            depth = 0
            while i < r1:
                t = self.toks[i]
                if t.text == "(" or t.text == "[":
                    depth += 1
                elif t.text == ")" or t.text == "]":
                    depth -= 1
                if t.kind == "p" and depth <= 0 and t.text in (";", "{", "}"):
                    if stmt:
                        out.append(stmt)
                    stmt = []
                    if depth < 0:
                        depth = 0
                else:
                    stmt.append((i, t))
                i += 1
            if stmt:
                out.append(stmt)
        return out

    def calls(self, fn: Function):
        """Call sites in fn's body (lambda bodies excluded)."""
        out = []
        toks = self.toks
        for r0, r1 in self.direct_ranges(fn):
            for i in range(r0, r1):
                t = toks[i]
                if t.kind != "id" or t.text in KEYWORDS:
                    continue
                j = i + 1
                # allow one template-argument group: Foo<Bar>(x)
                if j < r1 and toks[j].text == "<":
                    depth = 1
                    k = j + 1
                    while k < r1 and depth > 0 and k - j < 24:
                        if toks[k].text == "<":
                            depth += 1
                        elif toks[k].text == ">":
                            depth -= 1
                        k += 1
                    if depth == 0 and k < r1 and toks[k].text == "(":
                        j = k
                if not (j < r1 and toks[j].text == "("):
                    continue
                # receiver chain: a->b.c::d ending just before i
                recv = []
                k = i - 1
                while k >= r0 and toks[k].kind == "p" and \
                        toks[k].text in ("->", ".", "::"):
                    if k - 1 >= r0 and toks[k - 1].kind == "id":
                        recv.append(toks[k - 1].text)
                        k -= 2
                    elif k - 1 >= r0 and toks[k - 1].text == ")":
                        recv.append("<call>")
                        break
                    else:
                        break
                recv.reverse()
                close = self.close_of(j)
                args = " ".join(x.text for x in toks[j + 1:close])
                out.append(CallSite(name=t.text, recv=recv, args=args,
                                    line=t.line, tok=i))
        return out

    # -- lock regions --------------------------------------------------------

    def scope_end(self, tok_idx: int, fn: Function) -> int:
        """End (token idx) of the innermost brace scope containing tok_idx."""
        start, end = fn.body
        best = end
        for i, close in self._match.items():
            if self.toks[i].text != "{":
                continue
            if start <= i < tok_idx <= close <= end and close < best:
                best = close
        return best

    def lock_regions(self, fn: Function, resolve):
        """Regions of fn's body during which a bg3 mutex is held.

        `resolve(expr_chain, fn)` maps a lock-expression chain (list of
        identifiers, e.g. ["leaf", "latch"]) to a site string.
        """
        regions = []
        toks = self.toks
        # BG3_REQUIRES / BG3_ACQUIRE style: whole body held.
        for macro in ("BG3_REQUIRES", "BG3_REQUIRES_SHARED"):
            if macro in fn.annotations:
                for arg in fn.annotations[macro].split(","):
                    arg = arg.strip()
                    if not arg:
                        continue
                    chain = [p for p in re.split(r"->|\.|::|\s+", arg) if p]
                    site = resolve(chain, fn)
                    regions.append(LockRegion(
                        site=site, expr=arg, start=fn.body[0],
                        end=fn.body[1], line=fn.line, kind="requires"))
        for stmt in self.statements(fn):
            texts = [t.text for _, t in stmt]
            if not texts:
                continue
            # RAII guards.
            g = self._guard_in(stmt)
            if g is not None:
                varname, expr_chain, expr_text, idx0, cap = g
                site = resolve(expr_chain, fn)
                end = self.scope_end(idx0, fn)
                # Early release via var.unlock()/var.Unlock().
                end = min(end, self._early_release(varname, idx0, fn))
                regions.append(LockRegion(
                    site=site, expr=expr_text, start=stmt[-1][0] + 1,
                    end=end, line=stmt[0][1].line, kind="guard",
                    cap=cap, var=varname))
                continue
            # Explicit chain.Lock() / .lock() / .ReaderLock() / .lock_shared().
            m = self._explicit_lock(stmt)
            if m is not None:
                chain, expr_text = m
                site = resolve(chain, fn)
                end = self._explicit_unlock(chain, stmt[-1][0], fn)
                regions.append(LockRegion(
                    site=site, expr=expr_text, start=stmt[-1][0] + 1,
                    end=end, line=stmt[0][1].line, kind="explicit"))
        return regions

    def _guard_in(self, stmt):
        """Detects `MutexLock l(&mu_)` / `std::unique_lock<SharedMutex> l(x)`
        and std guards over plain std::mutex (cap "std" — the WAL pipeline's
        internal latches, which the latch-discipline pass scopes by class).

        Returns (varname, lock_expr_chain, expr_text, first_tok_idx, cap)
        or None.
        """
        texts = [t.text for _, t in stmt]
        cap = "bg3"
        i = 0
        if texts[:2] == ["std", "::"]:
            i = 2
        if i >= len(texts):
            return None
        head = texts[i]
        if head in BG3_GUARDS:
            i += 1
        elif head in STD_GUARDS:
            # a bg3 Mutex/SharedMutex template argument, or plain std::mutex
            # (tagged cap "std" so passes can opt in selectively)
            if i + 1 >= len(texts) or texts[i + 1] != "<":
                return None
            j = i + 2
            targ = []
            depth = 1
            while j < len(texts) and depth > 0:
                if texts[j] == "<":
                    depth += 1
                elif texts[j] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                targ.append(texts[j])
                j += 1
            if any(t in BG3_MUTEX_TYPES for t in targ):
                cap = "bg3"
            elif "mutex" in targ:
                cap = "std"
            else:
                return None
            i = j + 1
        else:
            return None
        if i >= len(texts) or not re.match(r"^\w+$", texts[i]):
            return None
        varname = texts[i]
        if i + 1 >= len(texts) or texts[i + 1] not in ("(", "{"):
            return None
        arg = texts[i + 2:]
        # first argument only
        depth = 0
        first = []
        for t in arg:
            if t in "([{":
                depth += 1
            elif t in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif t == "," and depth == 0:
                break
            first.append(t)
        chain = [p for p in first if re.match(r"^\w+$", p) and p != "this"]
        expr_text = "".join(first)
        return (varname, chain, expr_text, stmt[0][0], cap)

    def _early_release(self, varname, after_idx, fn):
        toks = self.toks
        for i in range(after_idx, fn.body[1]):
            if (toks[i].kind == "id" and toks[i].text == varname
                    and i + 2 < fn.body[1] and toks[i + 1].text == "."
                    and toks[i + 2].text in ("unlock", "Unlock")):
                return i
        return fn.body[1]

    def _explicit_lock(self, stmt):
        texts = [t.text for _, t in stmt]
        lock_names = {"Lock", "lock", "ReaderLock", "lock_shared"}
        for j, t in enumerate(texts):
            if t in lock_names and j + 1 < len(texts) and \
                    texts[j + 1] == "(" and j >= 2 and \
                    texts[j - 1] in (".", "->"):
                chain = []
                k = j - 1
                while k >= 1 and texts[k] in (".", "->", "::"):
                    if re.match(r"^\w+$", texts[k - 1]):
                        chain.append(texts[k - 1])
                        k -= 2
                    else:
                        break
                chain.reverse()
                if chain:
                    return (chain, "".join(texts[:j + 1]))
        return None

    def _explicit_unlock(self, chain, after_idx, fn):
        toks = self.toks
        unlock_names = {"Unlock", "unlock", "ReaderUnlock", "unlock_shared"}
        want = chain[-1]
        for i in range(after_idx, fn.body[1]):
            if (toks[i].kind == "id" and toks[i].text in unlock_names
                    and i >= 2 and toks[i - 1].text in (".", "->")
                    and toks[i - 2].kind == "id"
                    and toks[i - 2].text == want):
                return i
        return fn.body[1]


# ---------------------------------------------------------------------------
# Project-wide index
# ---------------------------------------------------------------------------


class ProjectIndex:
    """All FileModels plus cross-file lookup tables."""

    def __init__(self, files):
        self.models: dict[str, FileModel] = {}
        for f in files:
            self.models[f] = FileModel(f)
        self.by_name: dict[str, list[Function]] = {}
        self.by_key: dict[tuple, list[Function]] = {}
        self.mutex_sites: dict[str, MutexMember] = {}
        self.member_types: dict[tuple, str] = {}
        for fm in self.models.values():
            for fn in fm.functions:
                if fn.is_lambda:
                    continue
                self.by_name.setdefault(fn.name, []).append(fn)
                self.by_key.setdefault(fn.key, []).append(fn)
            for mm in fm.mutex_members:
                self.mutex_sites.setdefault(mm.site, mm)
            self.member_types.update(fm.member_types)

    def model(self, fn: Function) -> FileModel:
        return self.models[fn.file]

    # -- annotation / signature queries (merged across decls + defs) --------

    def annotations_for(self, cls, name):
        ann = {}
        for fn in self.by_key.get((cls, name), []):
            ann.update(fn.annotations)
        return ann

    def functions_matching(self, name, cls=None):
        if cls is not None:
            hits = self.by_key.get((cls, name), [])
            if hits:
                return hits
        return self.by_name.get(name, [])

    # -- receiver-type inference --------------------------------------------

    TYPE_WORD = re.compile(r"[A-Za-z_]\w*")

    def class_of_type(self, type_str: str):
        """Best-effort class name from a declared type string."""
        if not type_str:
            return None
        words = [w for w in self.TYPE_WORD.findall(type_str)
                 if w not in ("const", "mutable", "std", "unique_ptr",
                              "shared_ptr", "vector", "atomic", "bg3",
                              "cloud", "wal", "core", "forest", "gc",
                              "replication", "bwtree", "graph", "query",
                              "workload", "lsm")]
        # Last capitalized word tends to be the class (unique_ptr<X>, X*...).
        for w in reversed(words):
            if w[0].isupper():
                return w
        return None

    def local_types(self, fn: Function):
        """Declared local variable name -> class, from `Type* name` patterns."""
        fm = self.model(fn)
        out = {}
        for stmt in fm.statements(fn):
            texts = [t.text for _, t in stmt]
            # pattern: [const] Type [*&] name ... ("=", "(", "{" or end)
            i = 0
            while i < len(texts) and texts[i] in ("const", "auto", "static"):
                i += 1
            run = []
            j = i
            while j < len(texts) and (re.match(r"^\w+$", texts[j]) or
                                      texts[j] in ("::", "<", ">", ",", "*",
                                                   "&")):
                run.append(texts[j])
                j += 1
            idents = [w for w in run if re.match(r"^\w+$", w)]
            if len(idents) >= 2 and (j >= len(texts) or
                                     texts[j] in ("=", "(", "{", ";")):
                name = idents[-1]
                cls = self.class_of_type(" ".join(run[:-1]))
                if cls and name[0].islower():
                    out.setdefault(name, cls)
        # parameters: "Type* name, ..."
        for piece in fn.params.split(","):
            words = piece.replace("*", " ").replace("&", " ").split()
            if len(words) >= 2:
                cls = self.class_of_type(" ".join(words[:-1]))
                if cls and re.match(r"^\w+$", words[-1]):
                    out.setdefault(words[-1], cls)
        return out

    def resolve_receiver(self, call: CallSite, fn: Function):
        """Class of the call's receiver, or None when unknown."""
        if not call.recv:
            return fn.cls  # unqualified: maybe a method of the same class
        head = call.recv[-1]
        if head == "this":
            return fn.cls
        if head[0].isupper():
            return head  # static call Class::Fn
        # member variable of the enclosing class?
        if fn.cls is not None and (fn.cls, head) in self.member_types:
            return self.class_of_type(self.member_types[(fn.cls, head)])
        return self.local_types(fn).get(head)

    def resolve_callees(self, call: CallSite, fn: Function):
        """Candidate Functions for a call site; [] when unresolvable."""
        recv_cls = self.resolve_receiver(call, fn)
        if recv_cls is not None:
            hits = self.by_key.get((recv_cls, call.name), [])
            if hits:
                return hits
            if call.recv:
                # Receiver class is known but the method is not indexed
                # (e.g. a class outside the lint scope): do NOT fall back to
                # name matching — guessing across classes breeds false
                # positives.
                return []
        if not call.recv:
            hits = self.by_key.get((None, call.name), [])
            all_named = self.by_name.get(call.name, [])
            if hits and len({f.key for f in all_named}) == 1:
                return hits
            if len({f.key for f in all_named}) == 1:
                return all_named
            return hits
        # obj->Name with unknown receiver type: resolve only when every
        # function of this name agrees (single key) — avoids cross-class
        # false positives.
        all_named = self.by_name.get(call.name, [])
        if len({f.key for f in all_named}) == 1:
            return all_named
        return []

    def lock_regions(self, fn: Function):
        """Held regions for fn, honoring annotations declared on any of its
        declarations (BG3_REQUIRES usually lives on the header decl, not the
        out-of-line definition)."""
        fm = self.model(fn)
        merged = dict(self.annotations_for(*fn.key))
        merged.update(fn.annotations)
        saved = fn.annotations
        fn.annotations = merged
        try:
            return fm.lock_regions(
                fn, lambda chain, f=fn: self.resolve_lock_site(chain, f))
        finally:
            fn.annotations = saved

    def resolve_lock_site(self, chain, fn: Function):
        """Maps a lock-expression chain to a mutex site "Class::member"."""
        if not chain:
            return "?"
        member = chain[-1]
        # mu_ alone: member of the enclosing class (or a local std guard).
        if len(chain) == 1:
            if fn.cls is not None and f"{fn.cls}::{member}" in self.mutex_sites:
                return f"{fn.cls}::{member}"
        else:
            recv = chain[-2]
            cls = None
            if fn.cls is not None and (fn.cls, recv) in self.member_types:
                cls = self.class_of_type(self.member_types[(fn.cls, recv)])
            if cls is None:
                cls = self.local_types(fn).get(recv)
            if cls is not None and f"{cls}::{member}" in self.mutex_sites:
                return f"{cls}::{member}"
        # unique member-name match across all classes
        cands = [s for s in self.mutex_sites if s.endswith("::" + member)]
        if len(cands) == 1:
            return cands[0]
        return "?" + ".".join(chain)
