"""guarded-by: thread-safety annotation coverage of lock-owning classes.

Scope: classes and structs in the concurrent modules (src/sched/ and
src/runtime/) that *own a lock member* (sched::Spinlock, util::Mutex,
std::mutex, std::atomic_flag). Owning a lock declares the
intent "this type is accessed from several threads and the lock is the
protocol" — so every mutable field of such a class must either:

  - be std::atomic (its own protocol),
  - be the lock itself / another capability,
  - carry SBS_GUARDED_BY(...) / SBS_PT_GUARDED_BY(...) so clang's
    -Wthread-safety proves the discipline,
  - carry SBS_INIT_ONLY or SBS_CONFINED(who) (documentation-only macros
    in util/thread_safety.h) naming a non-lock protocol the clang
    analysis cannot express, or
  - carry a `// lint:allow(guarded-by)` waiver naming why it is safe
    unguarded (e.g. an internally synchronized member object).

Classes without lock members are skipped: padded per-worker state
(alignas(64) PerThread blocks and friends) is confined by construction
and annotating it would be noise, exactly the "non-padded" carve-out
in the rule statement.
"""

from . import cxx
from .findings import Finding

SCOPE_MODULES = ("sched", "runtime")

LOCK_TYPES = {"Spinlock", "Mutex", "mutex", "recursive_mutex",
              "shared_mutex", "atomic_flag"}
ANNOTATIONS = {"SBS_GUARDED_BY", "SBS_PT_GUARDED_BY",
               "SBS_INIT_ONLY", "SBS_CONFINED"}
SKIP_KEYWORDS = {"using", "typedef", "friend", "static", "constexpr",
                 "enum", "public", "private", "protected", "template",
                 "operator", "explicit", "virtual", "return"}


def run(repo):
    findings = []
    for rel in sorted(repo.files):
        sf = repo.files[rel]
        if sf.module not in SCOPE_MODULES:
            continue
        toks = cxx.tokens(sf.lexed.code)
        for cls in _classes(toks):
            findings.extend(_check_class(rel, cls))
    return findings


class _Class:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.fields = []  # (name, line, type_tokens, annotated)


def _classes(toks):
    """Yield _Class for every class/struct body, outer and nested."""
    out = []
    i = 0
    while i < len(toks):
        if toks[i].kind == "ident" and toks[i].value in ("class", "struct"):
            cls, nxt = _parse_class(toks, i, out)
            if cls is None:
                i += 1
                continue
            i = nxt
            continue
        i += 1
    return out


def _parse_class(toks, i, out):
    """toks[i] is class/struct. Parse `class [attrs] Name [: bases] { ... }`;
    returns (class or None, next index). Nested classes recurse via the
    shared `out` list."""
    j = i + 1
    name = None
    line = toks[i].line
    # Skip attribute macros (SBS_CAPABILITY("x"), alignas(64), ...) and
    # remember the last plain identifier before `{`, `:` or `;`.
    while j < len(toks):
        t = toks[j]
        if t.kind == "ident":
            name = t.value
            if j + 1 < len(toks) and toks[j + 1].value == "(":
                _, j = _skip_parens(toks, j + 1)
                continue
        elif t.value == "{":
            break
        elif t.value in (";", ":", "<"):
            # forward declaration; or base clause / template starts —
            # scan forward to the body or the terminating semicolon.
            if t.value == ";":
                return None, j + 1
            j = _scan_to_body(toks, j)
            break
        j += 1
    if j >= len(toks) or toks[j].value != "{":
        return None, i + 1
    if name is None:
        return None, i + 1
    cls = _Class(name, line)
    j = _parse_body(toks, j + 1, cls, out)
    out.append(cls)
    return cls, j


def _skip_parens(toks, j):
    """toks[j] == '('; return (None, index past the matching ')')."""
    depth = 0
    while j < len(toks):
        if toks[j].value == "(":
            depth += 1
        elif toks[j].value == ")":
            depth -= 1
            if depth == 0:
                return None, j + 1
        j += 1
    return None, j


def _scan_to_body(toks, j):
    depth = 0
    while j < len(toks):
        v = toks[j].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth = max(0, depth - 1)
        elif v == "{" and depth == 0:
            return j
        elif v == ";" and depth == 0:
            return j
        j += 1
    return j


def _parse_body(toks, j, cls, out):
    """Parse class body statements until the closing brace; returns index
    past it. Field statements are recorded; method bodies and nested
    braces are skipped; nested classes recurse."""
    stmt = []
    while j < len(toks):
        t = toks[j]
        if t.value == "}":
            return j + 1
        if t.kind == "ident" and t.value in ("class", "struct") and not stmt:
            nested, j = _parse_class(toks, j, out)
            if nested is None:
                j += 1
            continue
        if t.value == "{":
            # Method body or brace initializer. A method body follows `)`
            # or ident like `const`/`override`/`noexcept`; an initializer
            # follows the field name or `=`. Either way: skip balanced,
            # then a method statement ends (no `;` required).
            depth = 0
            start = j
            while j < len(toks):
                if toks[j].value == "{":
                    depth += 1
                elif toks[j].value == "}":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
            if _is_method_body(stmt):
                stmt = []
            else:
                stmt.append(toks[start])  # keep a `{` marker for the field
            continue
        if t.value == ";":
            # Method/constructor *declarations* end in `;` too — a
            # top-level parameter list marks them as non-fields.
            if stmt and not _is_method_body(stmt):
                cls.fields.append(_classify(stmt))
            stmt = []
            j += 1
            continue
        stmt.append(t)
        j += 1
    return j


def _is_method_body(stmt):
    """The brace block closes a method when the statement has a top-level
    parameter list: `type name(args) [qualifiers] { ... }`."""
    depth = 0
    for idx, t in enumerate(stmt):
        if t.value == "(":
            prev = stmt[idx - 1] if idx else None
            if depth == 0 and prev is not None and prev.kind == "ident" \
                    and prev.value not in ("alignas",) \
                    and not prev.value.isupper():
                return True
            depth += 1
        elif t.value == ")":
            depth -= 1
    return False


def _classify(stmt):
    """Turn a field statement's tokens into (name, line, type_words,
    annotated)."""
    words = [t.value for t in stmt]
    annotated = any(w in ANNOTATIONS for w in words)
    # Field name: last identifier before `=`, a `{` marker, or end —
    # skipping the contents of annotation macros and alignas(...).
    name = None
    depth = 0
    for t in stmt:
        if t.value == "(":
            depth += 1
        elif t.value == ")":
            depth -= 1
        elif depth == 0:
            if t.value in ("=", "{"):
                break
            if t.kind == "ident" and t.value not in ANNOTATIONS:
                name = t.value
    return (name, stmt[0].line, words, annotated)


def _check_class(rel, cls):
    lock_names = [
        name for (name, _, words, _) in cls.fields
        if name and _mentions(words, LOCK_TYPES) and "atomic" not in words]
    if not lock_names:
        return []
    findings = []
    for name, line, words, annotated in cls.fields:
        if name is None or annotated:
            continue
        if name in lock_names:
            continue
        if _skippable(words, name):
            continue
        findings.append(Finding(
            rel, line, "guarded-by",
            f"mutable field `{cls.name}::{name}` in a lock-owning class "
            f"has no SBS_GUARDED_BY({'/'.join(lock_names)}) annotation — "
            "annotate it, make it atomic, or waive with the confinement "
            "reason"))
    return findings


def _mentions(words, names):
    return any(w in names for w in words)


def _skippable(words, name):
    if words[0] in SKIP_KEYWORDS or name in SKIP_KEYWORDS:
        return True
    if "const" in words or "constexpr" in words or "static" in words:
        return True
    if "atomic" in words or any(w.startswith("atomic") for w in words):
        return True
    if _mentions(words, LOCK_TYPES):
        return True
    if "condition_variable" in words or "condition_variable_any" in words:
        return True  # CVs are their own synchronization primitive
    # Function pointers / std::function callbacks: invoked, not mutated.
    if "function" in words:
        return True
    return False
