#!/usr/bin/env python3
"""dmx_lint: the project-invariant linter.

Checks invariants that neither the compiler nor clang-tidy can express,
because they are *project* rules, not language rules (DESIGN.md "Static
enforcement"):

  guarded-loops       Every training/prediction entry point in
                      src/algorithms/*.cc (Train / Predict / ConsumeCase /
                      InsertCases) that contains a for/while loop must call a
                      guard checkpoint (GuardCheck / GuardChargeOutputRows /
                      GuardChargeWorkingSet) somewhere in its body — otherwise
                      deadlines and cancellation cannot trip inside it.

  raw-sync-primitive  Raw std synchronization primitives (std::mutex,
                      std::shared_timed_mutex, condition_variable, lock
                      adapters) and raw file streams (fopen, std::ofstream,
                      ...) are forbidden in src/ and tools/ outside the two
                      seams: src/common/mutex.h (annotated wrappers the
                      thread-safety analysis understands) and
                      src/common/env.cc (the fault-injectable I/O layer).

  raw-sleep           std::this_thread::sleep_for / sleep_until and usleep
                      are forbidden in src/ and tools/: waiting must go
                      through CondVar or guard deadlines so the deterministic
                      scheduler (common/det_sched.h) can control time and
                      deadlines/cancellation can trip the wait. This covers
                      src/server/ too — client retry backoff must sleep via
                      the injectable RetryClock (server/transport.h), never a
                      bare sleep_for. Tests may sleep (tests/ is outside the
                      linted tree).

  status-context      In cross-layer boundary files, `return <expr>.status();`
                      must attach a WithContext frame — a Status that crosses
                      a subsystem boundary without context is undiagnosable
                      by the time it reaches the user.

  bad-suppression     A `dmx-lint: allow(...)` comment naming an unknown rule
                      id (catches typos that would otherwise silently
                      suppress nothing).

  unused-suppression  A well-formed `dmx-lint: allow(...)` that silences no
                      violation — the code it excused was fixed or moved, so
                      the comment is stale and must be deleted.

Hot-path hygiene (DESIGN.md §14). Regions bracketed by `// dmx-hot-begin(name)`
and `// dmx-hot-end` mark the guard-checkpointed inner loops (scan/filter,
SHAPE case assembly, InsertCases, prediction join scoring, the algorithms'
train/predict loops). Inside a marked region a token-stream analyzer — real
tokens with loop-body tracking, not line regexes — enforces:

  hot-loop-alloc      No allocating construction per iteration: declaring a
                      std::string/std::vector/std::map/Row/Rowset/DataCase
                      (or `new`) inside a loop body, or push_back/emplace_back
                      on a container that is never reserve()d. Fix: hoist the
                      object out of the loop and clear()/reuse it, or reserve
                      before the loop.

  hot-value-copy      No Value/Row/DataCase/std::string taken by value in a
                      range-for, and no [=] default copy-capture. Fix: iterate
                      by const reference; capture exactly what the lambda
                      needs, by reference.

  hot-string-key      No per-row name-keyed lookups: ResolveColumn/FindColumn/
                      Get/find/count/at with a string(-literal) key inside a
                      loop body. Fix: resolve the column index once per
                      statement (Schema::ResolveColumns) and index by it.

  hot-tostring        No Value::ToString()/std::to_string() formatting inside
                      a loop body. Fix: precompute the formatted values or
                      move formatting out of the per-row path.

  hot-missing-guard   A marked region that loops but never calls GuardCheck /
                      GuardChargeOutputRows / GuardChargeWorkingSet: deadlines
                      and cancellation cannot trip inside it.

  hot-marker          Malformed region markers: dmx-hot-end without a begin,
                      nested or unterminated dmx-hot-begin.

Suppression: append `// dmx-lint: allow(<rule-id>)` to the violating line, or
put it on the line immediately above (with a comment explaining why). Every
suppression must name a known rule id.

Usage:
  tools/dmx_lint.py [--root DIR]   lint the tree rooted at DIR (default: the
                                   repository containing this script);
                                   exit 1 if any violation is found
  tools/dmx_lint.py --self-test    lint each fixture tree under
                                   tools/lint_fixtures/ and verify it yields
                                   exactly the violations its EXPECT file
                                   declares; exit 1 on any mismatch
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule ids (stable: referenced by allow() comments, EXPECT files and docs).
# ---------------------------------------------------------------------------

GUARDED_LOOPS = "guarded-loops"
RAW_SYNC_PRIMITIVE = "raw-sync-primitive"
RAW_SLEEP = "raw-sleep"
STATUS_CONTEXT = "status-context"
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"
HOT_LOOP_ALLOC = "hot-loop-alloc"
HOT_VALUE_COPY = "hot-value-copy"
HOT_STRING_KEY = "hot-string-key"
HOT_TOSTRING = "hot-tostring"
HOT_MISSING_GUARD = "hot-missing-guard"
HOT_MARKER = "hot-marker"

ALL_RULES = (GUARDED_LOOPS, RAW_SYNC_PRIMITIVE, RAW_SLEEP, STATUS_CONTEXT,
             BAD_SUPPRESSION, UNUSED_SUPPRESSION, HOT_LOOP_ALLOC,
             HOT_VALUE_COPY, HOT_STRING_KEY, HOT_TOSTRING, HOT_MISSING_GUARD,
             HOT_MARKER)

# Files the status-context rule applies to: the cross-layer boundaries where
# a Status hops subsystems (core <-> store, core <-> relational, UI <-> core,
# and the serving front end where a Status crosses the wire).
BOUNDARY_FILES = (
    "src/core/provider.cc",
    "src/core/prediction_join.cc",
    "src/core/caseset_source.cc",
    "src/core/schema_rowsets.cc",
    "src/store/store.cc",
    "src/server/server.cc",
    "src/server/client.cc",
)

# The only files allowed to touch raw sync/file primitives. lockdep and
# det-sched are the DMX_DEBUG_LOCKS instrumentation behind the mutex.h seam:
# their internal state cannot use dmx::Mutex (its hooks would re-enter them).
RAW_PRIMITIVE_SEAMS = (
    "src/common/mutex.h",
    "src/common/env.cc",
    "src/common/lockdep.cc",
    "src/common/det_sched.cc",
)

# Training / prediction entry points the guarded-loops rule inspects.
ENTRY_POINT_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*\b(?:\w+::)(Train|Predict|ConsumeCase|"
    r"InsertCases)\s*\(", re.MULTILINE)

LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
GUARD_CALL_RE = re.compile(
    r"\bGuard(?:Check|ChargeOutputRows|ChargeWorkingSet)\s*\(")

RAW_PRIMITIVE_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_|shared_timed_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bfopen\s*\("
    r"|std::[oif]?fstream\b")

RAW_SLEEP_RE = re.compile(
    r"std::this_thread::sleep_(?:for|until)\s*\("
    r"|\busleep\s*\(")

SUPPRESS_RE = re.compile(r"//\s*dmx-lint:\s*allow\(([a-z-]+)\)")


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # repo-relative, forward slashes
        self.line = line  # 1-based
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source scrubbing: blank out comments and string/char literals so rule
# regexes never match inside them. Line structure (offsets, count) is kept.
# ---------------------------------------------------------------------------

def scrub(text):
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if state is None:
            if two == "//":
                state = "line"
                out.append("  ")
                i += 2
            elif two == "/*":
                state = "block"
                out.append("  ")
                i += 2
            elif c in "\"'":
                state = c
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if two == "*/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # inside a string or char literal
            if two == "\\" + state or two == "\\\\":
                out.append("  ")
                i += 2
            elif c == state:
                state = None
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def find_matching_brace(text, open_index):
    """Index just past the `}` matching the `{` at open_index, or len(text)."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# ---------------------------------------------------------------------------
# Token-stream analyzer for the hot-path rules. Operates on scrubbed text
# (comments/strings blanked, the quote characters themselves preserved) so a
# token is never a comment or literal fragment; region markers are read from
# the raw lines because they *are* comments.
# ---------------------------------------------------------------------------

class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # "ident" | "num" | "str" | "chr" | "op"
        self.text = text
        self.line = line  # 1-based

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line})"


TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<num>\.?\d[\w.]*)"
    r"|(?P<str>\"[^\"]*\")"          # scrub() blanks contents, keeps quotes
    r"|(?P<chr>'[^']*')"
    r"|(?P<op>::|->|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||\.\.\."
    r"|[{}()\[\];,<>=&|*+\-/.!?:~^%#\\])")


def tokenize(scrubbed):
    """Scrubbed C++ source -> list of Tokens with 1-based line numbers."""
    tokens = []
    line = 1
    pos = 0
    for match in TOKEN_RE.finditer(scrubbed):
        line += scrubbed.count("\n", pos, match.start())
        pos = match.start()
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(), line))
    return tokens


HOT_BEGIN_RE = re.compile(r"//\s*dmx-hot-begin\((?P<name>[A-Za-z0-9_.-]+)\)")
HOT_END_RE = re.compile(r"//\s*dmx-hot-end\b")


def parse_hot_regions(lines):
    """Raw lines -> ([(name, begin_line, end_line)], [marker Violations' (line, msg)]).

    Regions do not nest; an unterminated begin extends to EOF and is
    reported as malformed.
    """
    regions = []
    errors = []
    open_name, open_line = None, None
    for line_no, line in enumerate(lines, start=1):
        begin = HOT_BEGIN_RE.search(line)
        end = HOT_END_RE.search(line)
        if begin:
            if open_name is not None:
                errors.append((line_no,
                               f"dmx-hot-begin({begin.group('name')}) inside "
                               f"still-open region '{open_name}' (line "
                               f"{open_line}); regions do not nest"))
            else:
                open_name, open_line = begin.group("name"), line_no
        elif end:
            if open_name is None:
                errors.append((line_no, "dmx-hot-end without a matching "
                                        "dmx-hot-begin"))
            else:
                regions.append((open_name, open_line, line_no))
                open_name, open_line = None, None
    if open_name is not None:
        errors.append((open_line, f"dmx-hot-begin({open_name}) never closed "
                                  "by a dmx-hot-end"))
        regions.append((open_name, open_line, len(lines)))
    return regions, errors


def find_loop_spans(tokens):
    """Token-index spans of every for/while/do loop: (kw, hdr_end, body_end).

    kw is the loop keyword's index; the loop's full span is tokens[kw ..
    body_end] inclusive, its body tokens[hdr_end+1 .. body_end]. A braceless
    body runs to the next top-level `;`.
    """

    def match_forward(start, open_tok, close_tok):
        depth = 0
        for i in range(start, len(tokens)):
            if tokens[i].text == open_tok:
                depth += 1
            elif tokens[i].text == close_tok:
                depth -= 1
                if depth == 0:
                    return i
        return len(tokens) - 1

    spans = []
    for i, tok in enumerate(tokens):
        if tok.kind != "ident":
            continue
        if tok.text in ("for", "while"):
            j = i + 1
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            hdr_end = match_forward(j, "(", ")")
            body_start = hdr_end + 1
            if body_start < len(tokens) and tokens[body_start].text == "{":
                body_end = match_forward(body_start, "{", "}")
            else:
                body_end = body_start
                while (body_end < len(tokens)
                       and tokens[body_end].text != ";"):
                    body_end += 1
            spans.append((i, hdr_end, body_end))
        elif tok.text == "do":
            j = i + 1
            if j < len(tokens) and tokens[j].text == "{":
                spans.append((i, i, match_forward(j, "{", "}")))
    return spans


# Container/string types whose construction inside a hot loop body means a
# fresh heap allocation (or growth towards one) every iteration.
ALLOCATING_TYPES = {
    "string", "vector", "map", "multimap", "unordered_map",
    "unordered_multimap", "set", "unordered_set", "deque", "list",
}
ALLOCATING_PROJECT_TYPES = {"Row", "Rowset", "DataCase", "Rows"}

# Types too heavy to pass through a range-for by value.
HEAVY_COPY_TYPES = {
    "Value", "Row", "Rowset", "DataCase", "CaseItem", "TargetPrediction",
    "string",
}

# Name-keyed lookups that must be pre-resolved outside the loop.
STRING_KEY_CALLS = {"ResolveColumn", "FindColumn", "ResolveColumns", "Get",
                    "find", "count", "at", "contains"}

GUARD_TOKENS = {"GuardCheck", "GuardChargeOutputRows",
                "GuardChargeWorkingSet"}

LOOP_KEYWORDS = {"for", "while", "do"}


class HotAnalyzer:
    """Runs the hot-path rules over one file's token stream."""

    def __init__(self, relpath, tokens, regions):
        self.relpath = relpath
        self.tokens = tokens
        self.regions = regions  # [(name, begin_line, end_line)]
        spans = find_loop_spans(tokens)
        # A loop is "hot" when its keyword sits inside a marked region.
        self.hot_spans = [s for s in spans
                          if self.region_of(tokens[s[0]].line)]
        n = len(tokens)
        self.in_hot_body = [False] * n
        self.in_hot_loop = [False] * n  # header + body
        for kw, hdr_end, body_end in self.hot_spans:
            for i in range(kw, min(body_end + 1, n)):
                self.in_hot_loop[i] = True
            for i in range(hdr_end + 1, min(body_end + 1, n)):
                self.in_hot_body[i] = True

    def region_of(self, line):
        for name, begin, end in self.regions:
            if begin <= line <= end:
                return name
        return None

    def violations(self):
        yield from self.check_loop_alloc()
        yield from self.check_value_copy()
        yield from self.check_string_key()
        yield from self.check_tostring()
        yield from self.check_missing_guard()

    # -- helpers ----------------------------------------------------------

    def skip_template_args(self, i):
        """Index just past a balanced <...> starting at i, else i."""
        if i >= len(self.tokens) or self.tokens[i].text != "<":
            return i
        depth = 0
        for j in range(i, len(self.tokens)):
            t = self.tokens[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t == ">>":  # closes two template levels
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t in (";", "{", "}"):  # not template args after all
                return i
        return i

    def match_type_head(self, i):
        """If tokens[i:] starts an ALLOCATING_TYPES/-PROJECT type name
        (optionally std::-qualified, optionally followed by template args),
        return (index_past_type, type_name); else None. `const` prefixes are
        handled by the caller's scan."""
        toks = self.tokens
        name = None
        if (toks[i].kind == "ident" and toks[i].text == "std"
                and i + 2 < len(toks) and toks[i + 1].text == "::"
                and toks[i + 2].text in ALLOCATING_TYPES):
            name = "std::" + toks[i + 2].text
            j = i + 3
        elif (toks[i].kind == "ident"
              and toks[i].text in ALLOCATING_PROJECT_TYPES):
            name = toks[i].text
            j = i + 1
        else:
            return None
        return self.skip_template_args(j), name

    # -- rules ------------------------------------------------------------

    def check_loop_alloc(self):
        toks = self.tokens
        reported_lines = set()
        for i, tok in enumerate(toks):
            if not self.in_hot_body[i]:
                continue
            # `new` expressions.
            if tok.kind == "ident" and tok.text == "new":
                yield Violation(
                    HOT_LOOP_ALLOC, self.relpath, tok.line,
                    "`new` inside a hot loop body allocates every iteration; "
                    "hoist the object out of the loop or use an arena")
                continue
            # Declarations / temporaries of allocating types. Preceding `.`,
            # `->` or `::` means this is a member/qualified name, not a type
            # head; a following `&` or `*` declares a reference/pointer.
            if tok.kind != "ident":
                continue
            if i > 0 and toks[i - 1].text in (".", "->", "::"):
                continue
            head = self.match_type_head(i)
            if head is None:
                continue
            j, type_name = head
            if j < len(toks) and toks[j].text in ("&", "*"):
                continue  # reference binding / pointer declaration
            if j < len(toks) and (toks[j].kind == "ident"
                                  or toks[j].text in ("(", "{")):
                if tok.line in reported_lines:
                    continue
                reported_lines.add(tok.line)
                yield Violation(
                    HOT_LOOP_ALLOC, self.relpath, tok.line,
                    f"{type_name} constructed inside a hot loop body "
                    "(one allocation per iteration); hoist it out of the "
                    "loop and clear()/reuse it")
        # push_back / emplace_back on receivers that are never reserve()d.
        reserved = set()
        for i, tok in enumerate(toks):
            if (tok.kind == "ident" and tok.text == "reserve"
                    and i >= 2 and toks[i - 1].text in (".", "->")
                    and toks[i - 2].kind == "ident"):
                reserved.add(toks[i - 2].text)
        for i, tok in enumerate(toks):
            if not self.in_hot_body[i]:
                continue
            if (tok.kind == "ident"
                    and tok.text in ("push_back", "emplace_back")
                    and i >= 2 and toks[i - 1].text in (".", "->")
                    and toks[i - 2].kind == "ident"
                    and toks[i - 2].text not in reserved):
                yield Violation(
                    HOT_LOOP_ALLOC, self.relpath, tok.line,
                    f"{toks[i - 2].text}.{tok.text}() in a hot loop with no "
                    f"{toks[i - 2].text}.reserve() anywhere in this file; "
                    "reserve the expected size before the loop")

    def check_value_copy(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            # Default copy-capture anywhere in a region: hot lambdas must
            # name what they take, by reference.
            if (tok.text == "[" and i + 2 < len(toks)
                    and toks[i + 1].text == "="
                    and toks[i + 2].text == "]"
                    and self.region_of(tok.line)):
                yield Violation(
                    HOT_VALUE_COPY, self.relpath, tok.line,
                    "[=] default copy-capture in a hot region; capture the "
                    "specific variables, by reference")
                continue
            # Range-for taking a heavy element type by value.
            if not (tok.kind == "ident" and tok.text == "for"
                    and self.region_of(tok.line)):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            j = i + 2
            if j < len(toks) and toks[j].text == "const":
                j += 1
            name = None
            if (j + 2 < len(toks) and toks[j].text == "std"
                    and toks[j + 1].text == "::"
                    and toks[j + 2].text in HEAVY_COPY_TYPES):
                name = "std::" + toks[j + 2].text
                j = self.skip_template_args(j + 3)
            elif toks[j].kind == "ident" and toks[j].text in HEAVY_COPY_TYPES:
                name = toks[j].text
                j = self.skip_template_args(j + 1)
            else:
                continue
            if j < len(toks) and toks[j].text in ("&", "*"):
                continue
            # ident then ':' confirms a by-value range-for binding.
            if (j + 1 < len(toks) and toks[j].kind == "ident"
                    and toks[j + 1].text == ":"):
                yield Violation(
                    HOT_VALUE_COPY, self.relpath, tok.line,
                    f"range-for copies each {name} in a hot region; iterate "
                    "by const reference")

    def check_string_key(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            if not self.in_hot_body[i]:
                continue
            if not (tok.kind == "ident" and tok.text in STRING_KEY_CALLS
                    and i + 1 < len(toks) and toks[i + 1].text == "("):
                continue
            # Method or qualified call only: plain `find(` could be any
            # helper, but `x.find(` / `x->find(` / `Schema::Get(` is a
            # container/schema lookup.
            if not (i >= 1 and toks[i - 1].text in (".", "->", "::")):
                continue
            # A string literal or std::string temporary in the argument list
            # means the key is (re)built per row.
            depth = 0
            has_string_key = False
            for j in range(i + 1, len(toks)):
                t = toks[j]
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.kind == "str":
                    has_string_key = True
            # Schema lookups are name-keyed by definition.
            if tok.text in ("ResolveColumn", "FindColumn", "ResolveColumns"):
                has_string_key = True
            if has_string_key:
                yield Violation(
                    HOT_STRING_KEY, self.relpath, tok.line,
                    f"{tok.text}() with a string key inside a hot loop; "
                    "resolve the column/key to an index once per statement "
                    "(Schema::ResolveColumns) and use the index here")

    def check_tostring(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            if not self.in_hot_body[i]:
                continue
            if tok.kind != "ident":
                continue
            if (tok.text == "ToString" and i >= 1
                    and toks[i - 1].text in (".", "->")):
                yield Violation(
                    HOT_TOSTRING, self.relpath, tok.line,
                    "ToString() inside a hot loop formats every iteration; "
                    "precompute the formatted value outside the loop")
            elif (tok.text == "to_string" and i >= 2
                  and toks[i - 1].text == "::" and toks[i - 2].text == "std"):
                yield Violation(
                    HOT_TOSTRING, self.relpath, tok.line,
                    "std::to_string() inside a hot loop allocates and "
                    "formats every iteration; precompute it outside the "
                    "loop")

    def check_missing_guard(self):
        for name, begin, end in self.regions:
            has_loop = False
            has_guard = False
            for tok in self.tokens:
                if tok.line < begin or tok.line > end:
                    continue
                if tok.kind == "ident":
                    if tok.text in LOOP_KEYWORDS:
                        has_loop = True
                    elif tok.text in GUARD_TOKENS:
                        has_guard = True
            if has_loop and not has_guard:
                yield Violation(
                    HOT_MISSING_GUARD, self.relpath, begin,
                    f"hot region '{name}' loops but never calls GuardCheck/"
                    "GuardCharge*; deadlines and cancellation cannot trip "
                    "inside it")


def check_hot_rules(relpath, lines, scrubbed):
    if not relpath.startswith("src/"):
        return
    regions, marker_errors = parse_hot_regions(lines)
    for line_no, message in marker_errors:
        yield Violation(HOT_MARKER, relpath, line_no, message)
    if not regions:
        return
    analyzer = HotAnalyzer(relpath, tokenize(scrubbed), regions)
    yield from analyzer.violations()


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, raw_lines, scrubbed_text) and yields Violations.
# ---------------------------------------------------------------------------

def check_guarded_loops(relpath, lines, scrubbed):
    if not re.fullmatch(r"src/algorithms/[^/]+\.cc", relpath):
        return
    for match in ENTRY_POINT_RE.finditer(scrubbed):
        if match.start() != 0 and scrubbed[match.start() - 1] != "\n":
            continue  # not at the start of a line: not a definition
        name = match.group(1)
        def_line = scrubbed.count("\n", 0, match.start()) + 1
        open_brace = scrubbed.find("{", match.end())
        semi = scrubbed.find(";", match.end())
        if open_brace < 0 or (0 <= semi < open_brace):
            continue  # declaration, not a definition
        body = scrubbed[open_brace:find_matching_brace(scrubbed, open_brace)]
        if LOOP_RE.search(body) and not GUARD_CALL_RE.search(body):
            yield Violation(
                GUARDED_LOOPS, relpath, def_line,
                f"{name}() contains a loop but never calls GuardCheck/"
                "GuardCharge*; deadlines and cancellation cannot trip here")


def check_raw_sync_primitive(relpath, lines, scrubbed):
    if relpath in RAW_PRIMITIVE_SEAMS:
        return
    if not (relpath.startswith("src/") or relpath.startswith("tools/")):
        return
    for line_no, line in enumerate(scrubbed.split("\n"), start=1):
        match = RAW_PRIMITIVE_RE.search(line)
        if match:
            yield Violation(
                RAW_SYNC_PRIMITIVE, relpath, line_no,
                f"raw primitive '{match.group(0).strip()}' outside the "
                "common/mutex.h / common/env.cc seams; use the annotated "
                "wrappers or Env")


def check_raw_sleep(relpath, lines, scrubbed):
    if not (relpath.startswith("src/") or relpath.startswith("tools/")):
        return
    for line_no, line in enumerate(scrubbed.split("\n"), start=1):
        match = RAW_SLEEP_RE.search(line)
        if match:
            yield Violation(
                RAW_SLEEP, relpath, line_no,
                f"raw sleep '{match.group(0).strip().rstrip('(').strip()}' "
                "in production code; wait on a CondVar or a guard deadline "
                "so det-sched can control time and cancellation can trip")


def check_status_context(relpath, lines, scrubbed):
    if relpath not in BOUNDARY_FILES:
        return
    # Walk `return ... ;` statements (joined across lines) in scrubbed text.
    for match in re.finditer(r"\breturn\b([^;]*);", scrubbed):
        stmt = match.group(1)
        if ".status()" in stmt and ".WithContext(" not in stmt:
            line_no = scrubbed.count("\n", 0, match.start()) + 1
            yield Violation(
                STATUS_CONTEXT, relpath, line_no,
                "a Status crossing this boundary must carry .WithContext(...) "
                "so the failure is diagnosable downstream")


RULE_CHECKS = (check_guarded_loops, check_raw_sync_primitive,
               check_raw_sleep, check_status_context, check_hot_rules)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def lint_file(root, path):
    relpath = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    scrubbed = scrub(text)

    # Suppressions: each allow() entry silences its own line and the one
    # below it, and must actually silence something — an allow() whose
    # violation is gone is stale documentation and gets flagged itself.
    suppressions = []  # [rule, comment line, covered lines, used]
    violations = []
    for line_no, line in enumerate(lines, start=1):
        for rule in SUPPRESS_RE.findall(line):
            if rule not in ALL_RULES:
                violations.append(Violation(
                    BAD_SUPPRESSION, relpath, line_no,
                    f"allow() names unknown rule '{rule}' (known: "
                    f"{', '.join(ALL_RULES)})"))
                continue
            suppressions.append([rule, line_no, (line_no, line_no + 1),
                                 False])

    for check in RULE_CHECKS:
        for violation in check(relpath, lines, scrubbed):
            hit = False
            for entry in suppressions:
                if violation.rule == entry[0] and violation.line in entry[2]:
                    entry[3] = True
                    hit = True
            if not hit:
                violations.append(violation)
    for rule, line_no, _covered, used in suppressions:
        if not used:
            violations.append(Violation(
                UNUSED_SUPPRESSION, relpath, line_no,
                f"allow({rule}) silences nothing here (the violation it "
                f"excused is gone; delete the comment)"))
    return violations


def lint_tree(root):
    violations = []
    for subdir in ("src", "tools"):
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cc", ".h", ".cpp") and path.is_file():
                if "lint_fixtures" in path.relative_to(root).parts:
                    continue  # fixtures are deliberately in violation
                violations.extend(lint_file(root, path))
    return violations


# ---------------------------------------------------------------------------
# Self-test: every directory under tools/lint_fixtures/ is a miniature tree
# whose EXPECT file lists the exact violations it must produce, one per line
# as `<rule-id>:<relpath>:<line>`, or the single word `clean`.
# ---------------------------------------------------------------------------

def self_test(fixtures_dir):
    if not fixtures_dir.is_dir():
        print(f"dmx_lint: no fixtures at {fixtures_dir}", file=sys.stderr)
        return 1
    failures = 0
    cases = sorted(p for p in fixtures_dir.iterdir() if p.is_dir())
    if not cases:
        print("dmx_lint: fixture directory is empty", file=sys.stderr)
        return 1
    for case in cases:
        expect_file = case / "EXPECT"
        if not expect_file.is_file():
            print(f"FAIL {case.name}: missing EXPECT file")
            failures += 1
            continue
        expected = set()
        for line in expect_file.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#") and line != "clean":
                expected.add(line)
        actual = {
            f"{v.rule}:{v.path}:{v.line}" for v in lint_tree(case)
        }
        if actual == expected:
            print(f"PASS {case.name}: "
                  f"{len(actual) or 'no'} violation(s), as expected")
        else:
            failures += 1
            print(f"FAIL {case.name}:")
            for missing in sorted(expected - actual):
                print(f"  expected but not reported: {missing}")
            for extra in sorted(actual - expected):
                print(f"  reported but not expected: {extra}")
    if failures:
        print(f"dmx_lint self-test: {failures}/{len(cases)} case(s) failed")
        return 1
    print(f"dmx_lint self-test: all {len(cases)} case(s) passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="tree to lint (default: this repository)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against the seeded fixtures")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "lint_fixtures")

    violations = lint_tree(args.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"dmx_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("dmx_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
