"""Atomics audit: ordering justifications, hot-path seq_cst, pairings.

Three checks over every file under src/:

atomic-order   Every *explicit* memory_order_* use must sit next to a
               comment that justifies it. Consecutive uses form one
               group (a protocol is commented once, not per line): a
               group is justified when a comment appears on any of its
               lines or within JUSTIFY_WINDOW lines above its first
               use. The tokenizer strips comments before matching, so
               a memory_order mentioned *in* a comment is not a use.

atomic-seqcst  In the hot modules (src/sched/, src/sim/) an atomic op
               with a *defaulted* memory order is flagged: implicit
               seq_cst in a fork/steal or simulated-access path is
               either an unintentional fence (fix: state the weaker
               order and why) or intentional (fix: write seq_cst out
               loud so the audit and the reader both see it).

atomic-pairing Per atomic field, keyed by class and member name (a
               declaration's class is the class body around it; a use's
               class is the class body or the out-of-line `Class::method`
               definition around it, or the only class declaring that
               name), the explicit orders must form a coherent protocol:
               an acquire-side load wants a release-side write of the
               same field somewhere, and a release store wants some
               acquire-side reader. A field whose uses are all relaxed
               or all seq_cst is coherent by construction. A use whose
               class cannot be told (another class's field reached
               through a pointer, in a class declaring no such field)
               falls back to the bare member name.
"""

import re

from .findings import Finding

HOT_MODULES = ("sched", "sim")
JUSTIFY_WINDOW = 3

ORDER_RE = re.compile(r"\bmemory_order(?:_|::\s*)"
                      r"(relaxed|consume|acquire|release|acq_rel|seq_cst)\b")
ATOMIC_OP_RE = re.compile(
    r"(?:(?P<obj>[A-Za-z_][\w\]\[]*(?:\s*(?:\.|->)\s*[A-Za-z_][\w\]\[]*)*)"
    r"\s*(?:\.|->)\s*)"
    r"(?P<op>load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set|clear|wait|notify_one|notify_all)\s*\(")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"(?:(?:alignas|[A-Z][A-Z0-9_]*)\b\s*(?:\([^()]*\))?\s*)*"
    r"(?P<name>[A-Za-z_]\w*)(?:[^;{}()<>]|<[^;{}()]*>)*\{")
METHOD_HEAD_RE = re.compile(
    r"\b(?P<cls>[A-Za-z_]\w*)(?:<[^;{}()<>]*>)?::~?[A-Za-z_]\w*\s*\(")
QUALIFIERS_RE = re.compile(
    r"\s*(?:(?:(?:const|noexcept|override|final)\b|&&|&)\s*)*")
INITIALIZER_RE = re.compile(r"\s*[A-Za-z_][\w:<>]*\s*")
COMMA_RE = re.compile(r"\s*,")
SPACE_RE = re.compile(r"\s*")
ATOMIC_FIELD_RE = re.compile(
    r"\bstd::atomic(?:<|_flag|_bool|_int)[^;{}()]*?"
    r"\b(?P<name>[A-Za-z_]\w*)\s*(?:\{[^;]*\})?\s*(?:;|,|=)")

LOADISH = {"load", "wait"}
STOREISH = {"store", "notify_one", "notify_all", "clear"}
RMWISH = {"exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
          "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
          "test_and_set"}

ACQ_SIDE = {"acquire", "acq_rel", "seq_cst", "consume"}
REL_SIDE = {"release", "acq_rel", "seq_cst"}


def run(repo):
    findings = []
    # (class or None, member name) -> {"acq_load","rel_write","load","write"}
    fields = {}
    scopes = {rel: _class_scopes(sf.lexed.code)
              for rel, sf in repo.files.items()}
    declared = _declared_atomics(repo, scopes)
    for rel in sorted(repo.files):
        sf = repo.files[rel]
        findings.extend(_order_comments(rel, sf))
        findings.extend(_ops(rel, sf, fields, declared, scopes[rel]))
    findings.extend(_pairings(fields))
    return findings


def _declared_atomics(repo, scopes):
    """Member name -> the classes (None outside any class) that declare it
    std::atomic anywhere under src/. Declarations live in headers, uses in
    .cpp files, so the map is repo-wide."""
    out = {}
    for rel, sf in repo.files.items():
        for m in ATOMIC_FIELD_RE.finditer(sf.lexed.code):
            out.setdefault(m.group("name"), set()).add(
                _class_at(scopes[rel], m.start()))
    return out


def _class_scopes(code):
    """(start, end, class name) for every class/struct body and every
    out-of-line `Class::method(...) {...}` body in `code`."""
    scopes = []
    for m in CLASS_HEAD_RE.finditer(code):
        open_brace = m.end() - 1
        scopes.append((open_brace, _brace_end(code, open_brace),
                       m.group("name")))
    for m in METHOD_HEAD_RE.finditer(code):
        _, i = _balanced(code, m.end() - 1)
        i = QUALIFIERS_RE.match(code, i).end()
        if code.startswith(":", i) and not code.startswith("::", i):
            i = _skip_initializers(code, i + 1)
        if i < len(code) and code[i] == "{":
            scopes.append((i, _brace_end(code, i), m.group("cls")))
    return scopes


def _class_at(scopes, pos):
    """Name of the innermost scope around `pos`, or None."""
    best = None
    for start, end, name in scopes:
        if start <= pos < end and (best is None or start > best[0]):
            best = (start, name)
    return best[1] if best else None


def _skip_initializers(code, i):
    """Past a constructor's `a_(x), b_{y}` list; returns the body's `{`."""
    while True:
        m = INITIALIZER_RE.match(code, i)
        if not m or m.end() >= len(code) or code[m.end()] not in "({":
            return i
        i = m.end()
        if code[i] == "(":
            _, i = _balanced(code, i)
        else:
            i = _brace_end(code, i)
        m = COMMA_RE.match(code, i)
        if not m:
            return SPACE_RE.match(code, i).end()
        i = m.end()


def _brace_end(code, open_brace):
    """Index past the `}` matching code[open_brace] == '{'."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _order_comments(rel, sf):
    """atomic-order: explicit orders need a nearby justifying comment."""
    use_lines = sorted({
        sf.lexed.code.count("\n", 0, m.start()) + 1
        for m in ORDER_RE.finditer(sf.lexed.code)})
    if not use_lines:
        return []
    comments = sf.lexed.comment_lines()
    findings = []
    group = [use_lines[0]]
    for line in use_lines[1:]:
        if line - group[-1] <= 2:  # same protocol block
            group.append(line)
        else:
            findings.extend(_group_check(rel, group, comments))
            group = [line]
    findings.extend(_group_check(rel, group, comments))
    return findings


def _group_check(rel, group, comments):
    lo, hi = group[0], group[-1]
    for line in range(lo - JUSTIFY_WINDOW, hi + 1):
        if line in comments:
            return []
    return [Finding(
        rel, lo, "atomic-order",
        "explicit memory_order use without a justifying comment within "
        f"{JUSTIFY_WINDOW} lines — state the protocol (what it "
        "synchronizes with), or waive")]


def _field_key(field, pos, declared, scopes):
    """(class, member) a use at `pos` refers to; (None, member) if unsure."""
    owners = declared.get(field, set())
    if len(owners) == 1:
        return next(iter(owners)), field
    enclosing = _class_at(scopes, pos)
    return (enclosing if enclosing in owners else None), field


def _ops(rel, sf, fields, declared, scopes):
    """Defaulted-order detection + per-field order collection."""
    code = sf.lexed.code
    module = sf.module
    hot = module in HOT_MODULES
    findings = []
    for m in ATOMIC_OP_RE.finditer(code):
        args, _ = _balanced(code, m.end() - 1)
        op = m.group("op")
        field = _member_name(m.group("obj"))
        orders = [o.group(1) for o in ORDER_RE.finditer(args)]
        line = code.count("\n", 0, m.start()) + 1
        if not orders:
            if hot and _looks_atomic(field, op, declared):
                findings.append(Finding(
                    rel, line, "atomic-seqcst",
                    f"`.{op}()` with defaulted seq_cst ordering in hot "
                    f"module src/{module}/ — spell the order out "
                    "(seq_cst if the fence is wanted, a weaker order "
                    "with a comment if not)"))
            continue
        rec = fields.setdefault(_field_key(field, m.start(), declared,
                                           scopes), {
            "acq_load": False, "rel_write": False,
            "load": None, "write": None})
        if op in LOADISH:
            rec["load"] = rec["load"] or (rel, line)
            if orders[0] in ACQ_SIDE:
                rec["acq_load"] = True
        elif op in STOREISH or op in RMWISH:
            rec["write"] = rec["write"] or (rel, line)
            # CAS failure order is the trailing one; success order (and
            # any RMW/store order) is the first.
            if orders[0] in REL_SIDE:
                rec["rel_write"] = True
            if op in RMWISH and orders[0] in ACQ_SIDE:
                rec["acq_load"] = True
    return findings


def _pairings(fields):
    findings = []
    for (cls, member), rec in sorted(fields.items(),
                                     key=lambda kv: (kv[0][0] or "",
                                                     kv[0][1])):
        name = f"{cls}::{member}" if cls else member
        if rec["acq_load"] and rec["write"] and not rec["rel_write"]:
            rel, line = rec["write"]
            findings.append(Finding(
                rel, line, "atomic-pairing",
                f"atomic field `{name}` is acquire-loaded somewhere but "
                "every write is relaxed — the acquire synchronizes with "
                "nothing; make a write release/seq_cst or relax the load"))
        if rec["rel_write"] and rec["load"] and not rec["acq_load"]:
            rel, line = rec["load"]
            findings.append(Finding(
                rel, line, "atomic-pairing",
                f"atomic field `{name}` is release-stored somewhere but "
                "every load is relaxed — no reader can synchronize with "
                "the release; acquire-load it (or relax the store)"))
    return findings


def _member_name(obj):
    obj = re.split(r"\.|->", obj)[-1]
    return obj.split("[")[0].strip()


def _looks_atomic(field, op, declared):
    """Defaulted-order calls only count when the receiver is plausibly an
    atomic: the member is declared std::atomic somewhere in this repo's
    headers, or the op name is atomic-only (fetch_*/CAS/test_and_set)."""
    if op in RMWISH and op != "exchange":
        return True
    return field in declared


def _balanced(code, open_paren):
    """Return (argument text, index past close) for code[open_paren]=='('."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i], i + 1
    return code[open_paren + 1:], len(code)
