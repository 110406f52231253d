"""cpp_model.py - shared lexical C++ front end for the tree's analyzers.

Both csa.py (critical-section cost) and hpa.py (hot-path cost) are
deterministic lexical analyzers over the sources named by
``build/compile_commands.json`` (falling back to a walk of ``src/``).
They share this module, which needs no compiler:

1.  Comments and string literals are blanked (lengths preserved, quote
    characters kept) and a brace-matching scope walker reconstructs
    namespaces, classes, and function bodies, including out-of-line
    ``Class::Method`` definitions.
2.  Mutex fields (``DebugMutex``/``DebugSharedMutex`` with their registry
    name string, plus ``RawMutex`` fields which get a synthesized
    ``raw.<file>.<field>`` class) and typed member fields are indexed so
    receiver expressions such as ``logs_->TopicFor(id)->Append(...)`` or
    ``stripe.cv.wait_until(...)`` resolve to concrete methods.
3.  Scoped-locker statements (``MutexLock``/``WriterMutexLock``/
    ``ReaderMutexLock``/``RawMutexLock``) are resolved to lock classes
    with their region end (end of the enclosing block).
4.  A call graph is built from receiver-resolved, class-local, and
    statically qualified calls; ``propagate`` computes the transitive
    closure of seeded operations to every caller with a minimal witness
    chain.

The analyzers differ only in what they seed (csa: blocking/expensive
annotations and builtin sleep/alloc/format ops; hpa: allocations, wide
copies, formatting, lock acquisitions tagged with their performer) and
in how they turn the propagated map into ratcheted edges.

Known limitations (by construction, all under-approximations are
deterministic): calls through virtual interfaces and function pointers
are not resolved here (hpa adds an override-based resolution pass on
top); destructors other than trace::Span are invisible.  The scheduler,
DPOR, sched-trace and debug-mutex internals implement the instrumented
primitives themselves and are exempt from body analysis (their public
annotations still participate).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

LOCKER_TYPES = ("MutexLock", "WriterMutexLock", "ReaderMutexLock",
                "RawMutexLock")
MUTEX_TYPES = ("DebugMutex", "DebugSharedMutex", "RawMutex")

# Files whose function bodies implement the instrumented primitives (the
# scheduler virtualizes the sleeps and waits that the rest of the tree is
# measured against).  Declarations and annotations in them still load.
EXEMPT_BODY_FILES = (
    "common/debug_mutex.h",
    "common/scheduler.h",
    "common/scheduler.cc",
    "common/sched_trace.h",
    "common/sched_trace.cc",
    "common/dpor.h",
    "common/dpor.cc",
)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "do", "else", "return",
    "sizeof", "alignof", "decltype", "noexcept", "throw", "delete",
    "co_await", "co_return", "assert", "defined", "operator",
}

BUILTIN_CALLS = {
    "sleep_for": "builtin.sleep",
    "sleep_until": "builtin.sleep",
    "malloc": "builtin.alloc.malloc",
    "calloc": "builtin.alloc.malloc",
    "to_string": "builtin.str.to_string",
}

SMART_PTR_WRAPPERS = ("unique_ptr", "shared_ptr", "atomic", "optional")
CONTAINER_WRAPPERS = ("vector", "array", "deque")

TYPE_KEYWORDS = {
    "const", "constexpr", "static", "virtual", "inline", "mutable",
    "volatile", "explicit", "friend", "typename", "class", "struct",
    "unsigned", "signed", "long", "short", "auto", "void",
    "DYNAMAST_BLOCKING", "DYNAMAST_EXPENSIVE",
}

MAX_CHAIN = 12


# ---------------------------------------------------------------------------
# Text preparation


def blank_text(text):
    """Replaces comments and string/char literals with spaces.

    Newlines are preserved so offsets and line numbers survive; everything
    else inside a comment or literal becomes a space, so braces and quotes
    in comments cannot confuse the scope walker.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            if c == "'" and i > 0 and text[i - 1].isalnum() \
                    and i + 1 < n and (text[i + 1].isalnum()
                                       or text[i + 1] == "'"):
                # C++14 digit separator (500'000), not a char literal.
                i += 1
                continue
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    # Preprocessor directives neither open scopes nor end with ';', so a
    # surviving `#include` would bleed into the next scope's header text.
    # Blank whole directive lines (following backslash continuations).
    lines = "".join(out).split("\n")
    idx = 0
    while idx < len(lines):
        if lines[idx].lstrip().startswith("#"):
            while True:
                continued = lines[idx].rstrip().endswith("\\")
                lines[idx] = " " * len(lines[idx])
                if not continued or idx + 1 >= len(lines):
                    break
                idx += 1
        idx += 1
    return "\n".join(lines)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Scope reconstruction


@dataclass
class Scope:
    kind: str              # namespace | class | function | block | other
    name: str              # simple name ('' for blocks)
    header: str            # text between previous boundary and the brace
    open: int              # offset of '{'
    close: int             # offset of matching '}'
    parent: "Scope|None"
    children: list = field(default_factory=list)

    def namespace_path(self):
        parts = []
        s = self.parent
        while s is not None:
            if s.kind == "namespace" and s.name:
                parts.append(s.name)
            s = s.parent
        return "::".join(reversed(parts))

    def enclosing(self, kind):
        s = self.parent
        while s is not None:
            if s.kind == kind:
                return s
            s = s.parent
        return None


_CLASS_HEADER_RE = re.compile(
    r"(?:template\s*<[^{};]*>\s*)?(?:class|struct)\s+"
    r"(?:alignas\s*\([^()]*\)\s*)?"
    r"(?:DYNAMAST_\w+\s*\([^()]*\)\s*)?(\w+)\s*(?:final\s*)?"
    r"(?::[^{;]*)?$")
_NAMESPACE_RE = re.compile(r"namespace\s*([\w:]+)?\s*$")
_FN_NAME_RE = re.compile(r"([\w~]+(?:\s*::\s*[\w~]+)*)\s*\($")
_SPECIFIER_TAIL = {"const", "noexcept", "override", "final", "mutable",
                   "try", "->"}


def _classify_header(header, inside_function):
    """Classifies the scope opened by a '{' from the text preceding it."""
    h = header.strip()
    if not h:
        return ("block", "")
    m = _NAMESPACE_RE.search(h)
    if m and h.startswith("namespace"):
        name = m.group(1) or ""
        return ("namespace", name)
    if h.startswith("enum") or " enum " in h:
        return ("other", "")
    m = _CLASS_HEADER_RE.search(h)
    if m and "(" not in h[m.end(1):]:
        return ("class", m.group(1))
    if inside_function:
        return ("block", "")
    # A function definition: the header holds `ret name(args) specifiers`.
    paren = h.find("(")
    if paren < 0:
        return ("block", "")
    m = _FN_NAME_RE.search(h[:paren + 1])
    if m is None:
        return ("block", "")
    name = re.sub(r"\s+", "", m.group(1))
    last = name.rsplit("::", 1)[-1]
    if last in CONTROL_KEYWORDS:
        return ("block", "")
    # Brace-initializers in member-init lists end with a bare identifier
    # (`..., exported_` + '{'); function bodies end with ')' or a specifier.
    tail = h.rstrip()
    tail_tok = re.search(r"([\w)\]}>:]+)$", tail)
    if tail_tok:
        t = tail_tok.group(1)
        if (not t.endswith(")") and not t.endswith("}")
                and t not in _SPECIFIER_TAIL and not t.endswith(":")
                and not t.endswith(">")):
            return ("block", "")
    return ("function", name)


def build_scopes(blanked):
    """Returns the flat list of scopes (with parents) in `blanked`."""
    scopes = []
    stack = []
    # Per-level statement boundary: reset after ';', '{', '}' at that level.
    boundaries = [0]
    fn_depth = 0
    for i, c in enumerate(blanked):
        if c == ";":
            boundaries[-1] = i + 1
        elif c == "{":
            header = blanked[boundaries[-1]:i]
            kind, name = _classify_header(header, fn_depth > 0)
            parent = stack[-1] if stack else None
            scope = Scope(kind, name, header, i, -1, parent)
            if parent is not None:
                parent.children.append(scope)
            scopes.append(scope)
            stack.append(scope)
            if kind == "function":
                fn_depth += 1
            boundaries[-1] = i + 1
            boundaries.append(i + 1)
        elif c == "}":
            boundaries.pop()
            if boundaries:
                boundaries[-1] = i + 1
            else:
                boundaries = [i + 1]
            if stack:
                scope = stack.pop()
                scope.close = i
                if scope.kind == "function":
                    fn_depth -= 1
    for s in stack:  # unbalanced tail (should not happen on valid C++)
        s.close = len(blanked)
    return scopes


def enclosing_block_end(blanked, start, limit):
    """Offset of the '}' closing the block containing `start`."""
    depth = 0
    i = start
    while i < limit:
        c = blanked[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return limit


# ---------------------------------------------------------------------------
# Declaration model


@dataclass
class FuncInfo:
    cls: str                   # simple class name ('' for free functions)
    name: str                  # method simple name
    qual: str                  # dynamast::site::SiteManager::Commit
    file: str = ""
    line: int = 0
    blocking: bool = False
    expensive: bool = False
    hot_path: bool = False     # DYNAMAST_HOT_PATH root (hpa)
    requires: list = field(default_factory=list)   # raw mutex expressions
    return_type: str = ""      # simplified type name
    bodies: list = field(default_factory=list)     # (file, scope) pairs


@dataclass
class Project:
    root: str
    files: dict = field(default_factory=dict)       # rel -> original text
    blanked: dict = field(default_factory=dict)     # rel -> blanked text
    scopes: dict = field(default_factory=dict)      # rel -> [Scope]
    funcs: dict = field(default_factory=dict)       # (cls,name) -> FuncInfo
    free_funcs: dict = field(default_factory=dict)  # name -> FuncInfo|None
    mutex_fields: dict = field(default_factory=dict)   # (cls,fld) -> class
    mutex_by_name: dict = field(default_factory=dict)  # fld -> set(classes)
    typed_fields: dict = field(default_factory=dict)   # (cls,fld) -> type
    types_by_name: dict = field(default_factory=dict)  # fld -> set(types)
    aliases: dict = field(default_factory=dict)        # alias -> target
    class_files: dict = field(default_factory=dict)    # cls -> first file


def simplify_type(type_text, aliases):
    """Reduces a declaration type to the simple class name it names.

    `std::unique_ptr<log::DurableLog>` -> DurableLog; `const Shard&` ->
    Shard; `DebugCondVar` resolves through using-aliases.  Returns '' when
    no single class name can be extracted.
    """
    t = type_text.strip()
    t = re.sub(r"\b(?:%s)\b" % "|".join(TYPE_KEYWORDS - {"auto"}), " ", t)
    t = t.replace("*", " ").replace("&", " ").strip()
    m = re.match(r"(?:std\s*::\s*)?(\w+)\s*<\s*(.*?)\s*>\s*$", t, re.S)
    if m and m.group(1) in SMART_PTR_WRAPPERS + CONTAINER_WRAPPERS:
        t = m.group(2)
    t = re.sub(r"<[^<>]*>", "", t)          # drop remaining template args
    parts = [p for p in re.split(r"\s|::", t) if p]
    if not parts:
        return ""
    simple = parts[-1]
    if simple in TYPE_KEYWORDS or simple == "auto":
        return ""
    return aliases.get(simple, simple)


_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*((?:\w+\s*::\s*)*\w+)\s*[<;]")
_MUTEX_FIELD_RE = re.compile(
    r"\b(DebugMutex|DebugSharedMutex|RawMutex)\s+(\w+)\s*"
    r'(?:\{\s*"([^"]*)"\s*\})?\s*;')
_ANNOT_RE = re.compile(r"\bDYNAMAST_(BLOCKING|EXPENSIVE|HOT_PATH)\b")
_REQUIRES_RE = re.compile(
    r"\bDYNAMAST_REQUIRES(?:_SHARED)?\s*\(([^()]*)\)")
_FIELD_DECL_RE = re.compile(
    r"^((?:[\w:]+\s+)*[\w:]+(?:\s*<[^;]*>)?)[\s*&]+(\w+)\s*"
    r"(?:=.*)?$", re.S)
_METHOD_DECL_RE = re.compile(
    r"([\w~]+)\s*\(")


def iter_statements(blanked, scope):
    """Yields (start, text) for top-level statements of a class scope.

    Nested scopes (inline method bodies, nested classes) are skipped so a
    method-local variable cannot masquerade as a class field; their headers
    still appear as statements ending at the nested '{'.
    """
    pos = scope.open + 1
    events = sorted((c.open, c.close) for c in scope.children)
    cursor = pos
    for open_, close in events:
        seg = blanked[cursor:open_]
        base = cursor
        for stmt in _split_statements(seg):
            yield (base + stmt[0], stmt[1])
        # the nested scope's header text itself is the trailing fragment
        cursor = close + 1
    seg = blanked[cursor:scope.close]
    for stmt in _split_statements(seg):
        yield (cursor + stmt[0], stmt[1])


def _split_statements(segment):
    start = 0
    for m in re.finditer(";", segment):
        yield (start, segment[start:m.start()])
        start = m.end()
    if segment[start:].strip():
        yield (start, segment[start:])


def load_project(root, tool="cpp_model"):
    project = Project(root=root)
    files = discover_files(root)
    for rel in files:
        path = os.path.join(root, rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            raise SystemExit("%s: cannot read %s: %s" % (tool, rel, e))
        project.files[rel] = text
        project.blanked[rel] = blank_text(text)
        project.scopes[rel] = build_scopes(project.blanked[rel])
    collect_aliases(project)
    collect_fields(project)
    collect_functions(project)
    return project


def discover_files(root):
    """Translation units from compile_commands.json plus all src headers."""
    rels = set()
    cc_path = os.path.join(root, "build", "compile_commands.json")
    if os.path.exists(cc_path):
        try:
            with open(cc_path, "r", encoding="utf-8") as f:
                for entry in json.load(f):
                    p = os.path.normpath(
                        os.path.join(entry.get("directory", ""),
                                     entry.get("file", "")))
                    rel = os.path.relpath(p, root)
                    if rel.startswith("src" + os.sep) and os.path.exists(
                            os.path.join(root, rel)):
                        rels.add(rel.replace(os.sep, "/"))
        except (ValueError, OSError):
            pass
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                rel = rel.replace(os.sep, "/")
                if fn.endswith(".h") or rel not in rels:
                    rels.add(rel)
    return sorted(rels)


def collect_aliases(project):
    for rel in sorted(project.blanked):
        for m in _ALIAS_RE.finditer(project.blanked[rel]):
            target = re.sub(r"\s+", "", m.group(2)).rsplit("::", 1)[-1]
            project.aliases.setdefault(m.group(1), target)


def collect_fields(project):
    for rel in sorted(project.files):
        text = project.files[rel]
        blanked = project.blanked[rel]
        scopes = project.scopes[rel]
        classes = [s for s in scopes if s.kind == "class"]
        stem = os.path.splitext(os.path.basename(rel))[0]
        # Mutex fields run over the original text: the lock-class name
        # lives in the (otherwise blanked) initializer string.
        for m in _MUTEX_FIELD_RE.finditer(text):
            cls = _innermost(classes, m.start())
            cls_name = cls.name if cls else ""
            fld = m.group(2)
            if m.group(1) == "RawMutex":
                lock_class = "raw.%s.%s" % (stem, fld.strip("_"))
            else:
                lock_class = m.group(3) or ""
            if not lock_class:
                continue
            project.mutex_fields.setdefault((cls_name, fld), lock_class)
            project.mutex_by_name.setdefault(fld, set()).add(lock_class)
            project.class_files.setdefault(cls_name, rel)
        for cls in classes:
            for start, stmt in iter_statements(blanked, cls):
                # Access labels and attribute macros are not part of the
                # declaration; strip them before deciding whether the
                # statement is a field (no parens left) or a method.
                stmt = re.sub(r"\b(?:public|private|protected)\s*:", " ",
                              stmt)
                stmt = re.sub(r"\bDYNAMAST_\w+\s*\([^()]*\)", " ", stmt)
                if "(" in stmt or not stmt.strip():
                    continue
                dm = _FIELD_DECL_RE.match(stmt.strip())
                if not dm:
                    continue
                simple = simplify_type(dm.group(1), project.aliases)
                if not simple:
                    continue
                project.typed_fields.setdefault((cls.name, dm.group(2)),
                                                simple)
                project.types_by_name.setdefault(dm.group(2),
                                                 set()).add(simple)


def _innermost(scopes, offset):
    best = None
    for s in scopes:
        if s.open < offset <= s.close:
            if best is None or s.open > best.open:
                best = s
    return best


def collect_functions(project):
    for rel in sorted(project.files):
        blanked = project.blanked[rel]
        scopes = project.scopes[rel]
        # Declarations inside class bodies (prototypes and inline defs).
        for cls in (s for s in scopes if s.kind == "class"):
            for start, stmt in iter_statements(blanked, cls):
                if "(" not in stmt:
                    continue
                _record_decl(project, cls.name, cls, stmt, rel,
                             line_of(blanked, start))
        # Function definitions (in-class bodies and out-of-line ones).
        for fn in (s for s in scopes if s.kind == "function"):
            name = fn.name
            cls_scope = fn.enclosing("class")
            if "::" in name:
                parts = name.split("::")
                cls_name, simple = parts[-2], parts[-1]
            elif cls_scope is not None:
                cls_name, simple = cls_scope.name, name
            else:
                cls_name, simple = "", name
            info = _func_for(project, cls_name, simple, fn, rel)
            info.bodies.append((rel, fn))
            _merge_header(project, info, fn.header, cls_name)
            if not info.file:
                info.file = rel
                info.line = line_of(blanked, fn.open)


def _func_for(project, cls_name, simple, scope, rel):
    key = (cls_name, simple)
    info = project.funcs.get(key)
    if info is None:
        ns = scope.namespace_path() if scope else ""
        qual = "::".join(p for p in (ns, cls_name, simple) if p)
        info = FuncInfo(cls=cls_name, name=simple, qual=qual)
        project.funcs[key] = info
        if not cls_name:
            # Free functions: resolvable by simple name when unique.
            if simple in project.free_funcs:
                project.free_funcs[simple] = None   # ambiguous
            else:
                project.free_funcs[simple] = info
    return info


def _record_decl(project, cls_name, cls_scope, stmt, rel, line):
    m = _METHOD_DECL_RE.search(stmt)
    if m is None:
        return
    simple = m.group(1)
    if simple in CONTROL_KEYWORDS or simple.startswith("DYNAMAST"):
        return
    if re.fullmatch(r"[A-Z][A-Z0-9_]*", simple):
        return
    info = _func_for(project, cls_name, simple, cls_scope, rel)
    _merge_header(project, info, stmt, cls_name)
    if not info.file:
        info.file = rel
        info.line = line
    if not info.return_type:
        info.return_type = simplify_type(stmt[:m.start()], project.aliases)


def _merge_header(project, info, header, cls_name):
    for am in _ANNOT_RE.finditer(header):
        if am.group(1) == "BLOCKING":
            info.blocking = True
        elif am.group(1) == "HOT_PATH":
            info.hot_path = True
        else:
            info.expensive = True
    for rm in _REQUIRES_RE.finditer(header):
        for expr in rm.group(1).split(","):
            expr = expr.strip()
            if expr and expr not in info.requires:
                info.requires.append(expr)
    if not info.return_type:
        m = _METHOD_DECL_RE.search(header)
        if m:
            info.return_type = simplify_type(header[:m.start()],
                                             project.aliases)


# ---------------------------------------------------------------------------
# Receiver and mutex-expression resolution


_LOCAL_DECL_TMPL = (
    r"\b(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[\w:\s,*&<>]*>)?)\s*[&*]?\s+"
    r"%s\s*(?=[=;({:,)\[])")


def resolve_local_type(project, body_text, name):
    """Type of a local/parameter/range-for variable, latest decl wins."""
    best = None
    for m in re.finditer(_LOCAL_DECL_TMPL % re.escape(name), body_text):
        t = simplify_type(m.group(1), project.aliases)
        if t:
            best = t
    return best


def resolve_receiver_chain(project, chain, body_text, cls_name):
    """Resolves `stripe.cv` / `entries_[p].mu` style chains to a type."""
    parts = [p for p in re.split(r"->|\.", chain) if p.strip()]
    parts = [re.sub(r"\[[^\]]*\]", "", p).strip() for p in parts]
    parts = [p for p in parts if p]
    if not parts:
        return None
    current = None
    first = parts[0]
    if first in ("this",):
        current = cls_name
    else:
        current = resolve_local_type(project, body_text, first)
        if current is None:
            current = project.typed_fields.get((cls_name, first))
        if current is None:
            cands = project.types_by_name.get(first, set())
            if len(cands) == 1:
                current = next(iter(cands))
    for part in parts[1:]:
        if current is None:
            return None
        nxt = project.typed_fields.get((current, part))
        if nxt is None:
            cands = project.types_by_name.get(part, set())
            nxt = next(iter(cands)) if len(cands) == 1 else None
        current = nxt
    return current


def resolve_mutex_expr(project, expr, body_text, cls_name):
    """Maps a locker/REQUIRES argument to its lock class, or None."""
    expr = expr.strip()
    if not expr:
        return None
    if "." in expr or "->" in expr:
        m = re.match(r"(.+)(?:\.|->)(\w+)$", expr.replace(" ", ""))
        if not m:
            return None
        recv_chain, fld = m.group(1), m.group(2)
        recv_type = resolve_receiver_chain(project, recv_chain, body_text,
                                           cls_name)
        if recv_type is not None:
            found = project.mutex_fields.get((recv_type, fld))
            if found:
                return found
        cands = project.mutex_by_name.get(fld, set())
        return next(iter(cands)) if len(cands) == 1 else None
    fld = re.sub(r"\[[^\]]*\]", "", expr)
    found = project.mutex_fields.get((cls_name, fld))
    if found:
        return found
    cands = project.mutex_by_name.get(fld, set())
    return next(iter(cands)) if len(cands) == 1 else None


# ---------------------------------------------------------------------------
# Call and operation extraction


_CALL_RE = re.compile(
    r"((?:\w+(?:\[[^\]]*\])?\s*(?:->|\.)\s*)*)((?:\w+\s*::\s*)*\w+)\s*\(")
_CHAINED_CALL_RE = re.compile(r"\)\s*->\s*(\w+)\s*\(")
# make_unique_for_overwrite / make_shared_for_overwrite allocate too.
_MAKE_RE = re.compile(r"\bmake_(unique|shared)(?:_for_overwrite)?\s*<")
_NEW_RE = re.compile(r"\bnew\s+[A-Za-z_(]")
_SPAN_RE = re.compile(r"\b(?:trace\s*::\s*)?Span\s+\w+\s*\(")
_LOCKER_RE = re.compile(
    r"\b(%s)\s+\w+\s*\(\s*([^()]*?)\s*\)\s*;" % "|".join(LOCKER_TYPES))


@dataclass
class BodyFacts:
    """Everything extracted from one function body."""
    ops: list = field(default_factory=list)     # (offset, op-string)
    calls: list = field(default_factory=list)   # (offset, (cls, name) key)
    lockers: list = field(default_factory=list)  # (offset, class, end)


def strip_root(qual):
    return qual[len("dynamast::"):] if qual.startswith("dynamast::") \
        else qual


def extract_body_facts(project, rel, fn_scope, cls_name):
    blanked = project.blanked[rel]
    body = blanked[fn_scope.open + 1:fn_scope.close]
    base = fn_scope.open + 1
    # Function header text participates in local-variable resolution
    # (parameters are declared there).
    context_text = fn_scope.header + body
    facts = BodyFacts()
    locker_spans = []
    for m in _LOCKER_RE.finditer(body):
        locker_spans.append((m.start(), m.end()))
        lock_class = resolve_mutex_expr(project, m.group(2), context_text,
                                        cls_name)
        if lock_class is None:
            continue
        end = enclosing_block_end(blanked, base + m.end(), fn_scope.close)
        facts.lockers.append((base + m.start(), lock_class, end))

    def in_locker_stmt(offset):
        return any(s <= offset < e for (s, e) in locker_spans)
    for m in _MAKE_RE.finditer(body):
        facts.ops.append((base + m.start(),
                          "builtin.alloc.make_" + m.group(1)))
    for m in _NEW_RE.finditer(body):
        facts.ops.append((base + m.start(), "builtin.alloc.new"))
    for m in _SPAN_RE.finditer(body):
        facts.ops.append((base + m.start(), "expensive:trace::Span::record"))
    for m in _CALL_RE.finditer(body):
        if in_locker_stmt(m.start()):
            continue
        chain = m.group(1).strip()
        name_path = re.sub(r"\s", "", m.group(2))
        simple = name_path.rsplit("::", 1)[-1]
        if simple in CONTROL_KEYWORDS or simple in LOCKER_TYPES:
            continue
        if simple.startswith("DYNAMAST") or re.fullmatch(
                r"[A-Z][A-Z0-9_]*", simple):
            continue
        offset = base + m.start()
        if simple in BUILTIN_CALLS:
            facts.ops.append((offset, BUILTIN_CALLS[simple]))
            continue
        key = _resolve_call(project, chain, name_path, simple,
                            context_text, cls_name)
        if key is not None:
            facts.calls.append((offset, key))
    for m in _CHAINED_CALL_RE.finditer(body):
        key = _resolve_chained(project, body, m, cls_name, context_text)
        if key is not None:
            facts.calls.append((base + m.start(), key))
    facts.ops.sort()
    facts.calls.sort()
    facts.lockers.sort()
    return facts


def _resolve_call(project, chain, name_path, simple, context_text,
                  cls_name):
    if "::" in name_path:
        qual_cls = name_path.rsplit("::", 2)[-2]
        qual_cls = project.aliases.get(qual_cls, qual_cls)
        if (qual_cls, simple) in project.funcs:
            return (qual_cls, simple)
        return None
    if chain:
        recv_type = resolve_receiver_chain(project, chain, context_text,
                                           cls_name)
        if recv_type is not None and (recv_type, simple) in project.funcs:
            return (recv_type, simple)
        return None
    if (cls_name, simple) in project.funcs:
        return (cls_name, simple)
    free = project.free_funcs.get(simple)
    if free is not None:
        return ("", simple)
    return None


def _resolve_chained(project, body, match, cls_name, context_text):
    """Resolves `...TopicFor(args)->Append(` via the return type."""
    # Walk back over the balanced paren group preceding the '->'.
    i = match.start()          # offset of ')' in body
    depth = 0
    while i >= 0:
        if body[i] == ")":
            depth += 1
        elif body[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        return None
    pm = re.search(r"((?:\w+(?:\[[^\]]*\])?\s*(?:->|\.)\s*)*)"
                   r"((?:\w+\s*::\s*)*\w+)\s*$", body[:i])
    if pm is None:
        return None
    producer = _resolve_call(project, pm.group(1).strip(),
                             re.sub(r"\s", "", pm.group(2)),
                             re.sub(r"\s", "", pm.group(2)).rsplit(
                                 "::", 1)[-1],
                             context_text, cls_name)
    if producer is None:
        return None
    ret = project.funcs[producer].return_type
    method = match.group(1)
    if ret and (ret, method) in project.funcs:
        return (ret, method)
    return None


# ---------------------------------------------------------------------------
# Transitive propagation


def is_exempt(rel):
    return any(rel.endswith(suffix) for suffix in EXEMPT_BODY_FILES)


def compute_facts(project):
    facts = {}           # (cls, name) -> merged BodyFacts over bodies
    for key in sorted(project.funcs):
        info = project.funcs[key]
        merged = BodyFacts()
        for rel, scope in info.bodies:
            if is_exempt(rel):
                continue
            bf = extract_body_facts(project, rel, scope, info.cls)
            merged.ops.extend(bf.ops)
            merged.calls.extend(bf.calls)
            merged.lockers.extend((o, c, e, rel, scope)
                                  for (o, c, e) in bf.lockers)
        facts[key] = merged
    return facts


def propagate(project, facts, seed_fn, barrier=frozenset()):
    """Fixpoint: (cls,name) -> {op: minimal witness chain (tuple)}.

    ``seed_fn(project, key, merged)`` returns the op strings the function
    performs directly (what an "op" is belongs to the analyzer; csa seeds
    blocking/expensive/builtin/lock ops, hpa seeds performer-tagged cost
    ops).  Ops then propagate caller-ward along resolved calls with a
    minimal witness chain (shortest, ties broken lexicographically,
    capped at MAX_CHAIN, cycles cut).  Functions in ``barrier`` still
    seed their own map but their ops do not propagate into callers —
    hpa uses this so one hot-path root does not absorb the profile of
    another root it calls.
    """
    ops_map = {key: {} for key in facts}

    def merge(dst, op, chain):
        if len(chain) > MAX_CHAIN:
            return False
        old = dst.get(op)
        cand = (len(chain), chain)
        if old is None or (len(old), old) > cand:
            dst[op] = chain
            return True
        return False

    for key in sorted(facts):
        info = project.funcs[key]
        me = (strip_root(info.qual),)
        for op in seed_fn(project, key, facts[key]):
            merge(ops_map[key], op, me)

    changed = True
    while changed:
        changed = False
        for key in sorted(facts):
            info = project.funcs[key]
            mine = strip_root(info.qual)
            for _, callee in facts[key].calls:
                if callee in barrier:
                    continue
                for op, chain in sorted(ops_map[callee].items()):
                    if mine in chain:
                        continue        # cycle cut
                    if merge(ops_map[key], op, (mine,) + chain):
                        changed = True
    return ops_map
