#!/usr/bin/env python3
"""OpenDMX whole-program analyzer (gate 8): interprocedural lock/guard/view rules.

Where tools/dmx_lint.py (gates 1 and 7) is deliberately token-local, this
tool builds a project-wide call graph plus per-function facts and runs three
interprocedural rules:

  lock-blocking-call    a blocking operation (Env/WritableFile/Transport
                        I/O, CondVar::WaitFor/Wait on another mutex, sleeps,
                        fsync) is transitively reachable while an exclusive
                        DMX_REQUIRES capability or an exclusive RAII lock
                        scope is held. The store's own mutex exists to
                        serialize I/O and the journal-after-success WAL
                        entry points are the design, so both are sanctioned
                        (see SANCTIONED_BLOCKING / IO_CAPS below); unused
                        sanction entries are flagged as stale-sanction.
  guard-unreachable-loop  a row-scale loop (its header draws from a rowset/
                        caseset source) reachable from the execution roots
                        (Connection::Execute and the serving session loop)
                        with no guard checkpoint in its cycle — neither a
                        direct GuardCheck/GuardCharge* nor a call to a
                        function that transitively reaches one.
  view-escape           a borrowed view (string_view/span/Span, or a raw
                        pointer/reference return) rooted in an owning local
                        or by-value parameter escapes via the return value
                        or a store to a view-typed member.

Plus three self-policing rules: bad-suppression (allow() naming an unknown
rule), unused-suppression (an allow() that silences nothing), and
stale-sanction (a SANCTIONED_BLOCKING / IO_CAPS entry matching nothing in
the scanned program).

Function facts come from one of two frontends producing the same IR:

  clang     parses `clang++ -Xclang -ast-dump=json` for every TU listed in
            compile_commands.json. Facts (not raw ASTs) are cached under
            <build>/ast-cache/ keyed by content hash + compiler version.
  internal  a token-stream C++ reader built on dmx_lint's scrubber, used
            where clang is unavailable (minimal containers) and as the
            per-TU fallback when a clang dump fails to parse.

`--frontend=auto` (the default) prefers clang when both clang++ and a
compilation database are present. Fixture replay (`--self-test`) always
uses the internal frontend so results are reproducible without a compiler.

Findings print as `path:line: [rule] message`; EXPECT files use
`rule:path:line`. Suppress locally with `// dmx-deep-lint: allow(rule)` on
the finding's line or the line above.
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from dmx_lint import (  # noqa: E402
    Token, Violation, find_loop_spans, scrub, tokenize,
)

# Cache-key component: bump whenever the fact schema or extraction changes.
FACTS_VERSION = "dmx-deep-lint-facts-v2"

# ---------------------------------------------------------------------------
# Rule ids (stable: referenced by allow() comments, EXPECT files and docs).
# ---------------------------------------------------------------------------

LOCK_BLOCKING_CALL = "lock-blocking-call"
GUARD_UNREACHABLE_LOOP = "guard-unreachable-loop"
VIEW_ESCAPE = "view-escape"
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"
STALE_SANCTION = "stale-sanction"

ALL_RULES = (LOCK_BLOCKING_CALL, GUARD_UNREACHABLE_LOOP, VIEW_ESCAPE,
             BAD_SUPPRESSION, UNUSED_SUPPRESSION, STALE_SANCTION)

SUPPRESS_RE = re.compile(r"//\s*dmx-deep-lint:\s*allow\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# Analysis configuration. Everything here is overridable per fixture via a
# CONFIG.json in the fixture directory (keys: roots, sanctioned, io_caps,
# check_sanctions) so the rules themselves stay data-driven and testable.
# ---------------------------------------------------------------------------

# Entry points for reachability (guard-unreachable-loop). Matched as
# qualified-name suffixes.
DEFAULT_ROOTS = (
    "Connection::Execute",
    "Connection::ExecuteGuarded",
    "DmxServer::RunSession",
)

# Receiver types whose I/O-shaped methods block (syscalls, disk, wire).
BLOCKING_TYPES = {
    "Env", "PosixEnv", "WritableFile", "Transport", "TcpTransport",
    "TcpListener", "CondVar", "RetryClock", "SystemRetryClock",
}

# Method/function names that always denote a blocking primitive, no matter
# the receiver (names unique to the blocking seams, plus raw syscalls the
# raw-sleep/raw-sync token rules also police).
ALWAYS_BLOCKING_CALLS = {
    "NewWritableFile", "ReadFileToString", "AtomicWriteFile",
    "WriteStringToFile", "RenameFile", "DeleteFile", "TruncateFile",
    "CreateDir", "SyncDir", "ListDir", "GetFileSize", "FileExists",
    "SleepMs", "WaitFor", "Accept",
    "fsync", "fdatasync", "usleep", "nanosleep", "sleep_for", "sleep_until",
    "poll", "select",
}

# Names that block only when the receiver is one of BLOCKING_TYPES (the same
# names also appear on Rowset/std containers, where they are pure memory).
RECEIVER_BLOCKING_CALLS = {
    "Read", "Write", "Append", "Sync", "Flush", "Close", "Connect",
    "Listen", "ShutdownWrite", "Wait",
}

# Functions allowed to block from their callers' point of view: the WAL
# protocol journals *under* the exclusive catalog lock by design (DESIGN.md
# §7 — a mutation is not visible until its record is durable), and
# checkpoint/recovery hold it for the same reason. Matched as
# qualified-name suffixes; entries that match nothing are stale-sanction.
SANCTIONED_BLOCKING = {
    "DurableStore::JournalStatement":
        "WAL journal-after-success: mutations journal under the catalog "
        "lock so no reader sees un-durable state (DESIGN.md §7)",
    "DurableStore::JournalModelStatement":
        "per-model WAL shard journaling, same protocol (DESIGN.md §13)",
    "DurableStore::JournalModelBlob":
        "snapshot-once blob journaling for TRAIN/IMPORT (DESIGN.md §13)",
    "DurableStore::Checkpoint":
        "checkpoint quiesces the catalog by design; bounded by its own "
        "fsync budget, not a per-row path",
    "DurableStore::Open":
        "recovery replays shards before the provider serves traffic",
    "DurableStore::Repair":
        "quarantine repair re-reads shards while writes are fenced",
}

# Capabilities that exist to serialize I/O: holding them *while* doing I/O
# is their entire purpose, so rule 1 does not count them as held state.
IO_CAPS = {"DurableStore::mu_"}

# Loop-header identifiers that mark a loop as row-scale (it iterates a
# rowset/caseset-shaped source, so its trip count is data-dependent).
# Deliberately absent: "group"/"groups" — attribute groups (AttributeSet,
# PMML serialization) are schema-scale, bounded by model width. Row *groups*
# (GROUP BY partitions) are still caught by their element type below.
ROW_SOURCE_IDS = {
    "rows", "mutable_rows", "num_rows", "nested_rows",
    "cases", "num_cases", "selection",
}

# Range-for element types that mark a loop as row-scale regardless of the
# range expression's name: iterating Row/DataCase elements is iterating
# data, whatever the container is called.
ROW_ELEM_TYPES = {"Row", "DataCase"}

# Free guard checkpoints plus the ExecGuard methods behind them.
GUARD_FREE_CALLS = {"GuardCheck", "GuardChargeOutputRows",
                    "GuardChargeWorkingSet"}
GUARD_METHOD_CALLS = {"Check", "ChargeOutputRows", "ChargeWorkingSet"}

# RAII lock holders (src/common/mutex.h): type name -> exclusive?
EXCLUSIVE_LOCK_TYPES = {"MutexLock", "WriterMutexLock", "AdoptedWriterLock"}
SHARED_LOCK_TYPES = {"ReaderMutexLock", "AdoptedReaderLock"}
LOCK_TYPES = EXCLUSIVE_LOCK_TYPES | SHARED_LOCK_TYPES

# Owning value types: a view rooted in a local/by-value parameter of one of
# these dies with the frame.
OWNING_TYPES = {
    "string", "vector", "deque", "map", "unordered_map", "set",
    "unordered_set", "ostringstream", "stringstream", "array",
    "Row", "Rowset", "Value", "DataCase", "Schema", "ColumnDef",
}

# View-shaped type names (for member classification).
VIEW_TYPE_IDS = {"string_view", "span", "Span"}

# Type-name wrappers skipped when reducing a type token list to its core
# type (std::unique_ptr<store::DurableStore> -> DurableStore).
TYPE_WRAPPERS = {
    "std", "store", "rel", "dmx", "unique_ptr", "shared_ptr", "optional",
    "vector", "deque", "const", "volatile", "mutable", "static", "inline",
    "constexpr", "typename", "Result",
}

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "decltype",
    "new", "delete", "throw", "try", "catch", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "co_return", "co_await", "co_yield",
    "operator", "this", "nullptr", "true", "false", "static_assert",
    "defined", "assert", "not", "and", "or",
}

MACRO_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]*$")


def is_macro_name(name):
    return bool(MACRO_NAME_RE.fullmatch(name)) and ("_" in name or
                                                    name.isupper())


# ---------------------------------------------------------------------------
# The fact IR shared by both frontends. Everything is plain dict/list so it
# round-trips through the JSON fact cache untouched.
# ---------------------------------------------------------------------------


def make_call(name, chain, receiver, receiver_receiver, line, first_arg,
              is_guard):
    return {
        "name": name,                    # last component, e.g. "Append"
        "chain": chain,                  # full chain, e.g. ["rel","Execute"]
        "recv": receiver,                # receiver identifier or None
        "recv2": receiver_receiver,      # receiver's receiver or None
        "line": line,
        "arg0": first_arg,               # last ident of the first argument
        "guard": is_guard,
    }


def make_function(qualname, relpath, line):
    return {
        "qual": qualname,        # "dmx::Connection::ExecuteGuarded"
        "file": relpath,
        "line": line,
        "requires": [],          # [[cap, recv, exclusive]]
        "acquires": [],          # [[cap, recv, exclusive, line, end_line]]
        "calls": [],             # [make_call...]
        "loops": [],             # [[line, row_ident|None, guarded, [call idx]]]
        "locals": {},            # name -> core type
        "params": {},            # name -> [core type, by_value]
        "view_return": False,    # return type is a view/pointer/reference
        "returns": [],           # [[line, [ident...]]]
        "member_stores": [],     # [[line, member, [ident...]]]
        "lambdas": {},           # local name -> lambda qualname
    }


def make_file_facts(relpath):
    return {
        "file": relpath,
        "functions": [],         # [make_function...]
        "decl_requires": {},     # "Class::method" -> [[cap, recv, excl]]
        "member_types": {},      # member/global name -> core type
        "view_members": {},      # member name -> "Class" (view-typed member)
    }


# ---------------------------------------------------------------------------
# Internal frontend: a token-stream C++ reader. It does not try to be a
# parser; it recognizes the project's house style (one of the things the
# token gates already enforce) and extracts the IR above.
# ---------------------------------------------------------------------------


class TokenCursor:
    """Shared helpers over one file's token list."""

    def __init__(self, tokens):
        self.toks = tokens
        self.match = {}          # open index -> close index for () {} []
        stack = {"(": [], "{": [], "[": []}
        pairs = {")": "(", "}": "{", "]": "["}
        for i, t in enumerate(tokens):
            if t.text in stack:
                stack[t.text].append(i)
            elif t.text in pairs and stack[pairs[t.text]]:
                self.match[stack[pairs[t.text]].pop()] = i

    def close(self, i):
        return self.match.get(i, len(self.toks) - 1)


def strip_preprocessor(tokens):
    """Drop preprocessor directives (with backslash continuations)."""
    out = []
    i, n = 0, len(tokens)
    while i < n:
        if tokens[i].text == "#":
            line = tokens[i].line
            i += 1
            while i < n and tokens[i].line <= line:
                if tokens[i].text == "\\" and tokens[i].line == line:
                    line += 1
                i += 1
            continue
        out.append(tokens[i])
        i += 1
    return out


def core_type(type_tokens):
    """Reduce a type token list to its payload type name."""
    ids = [t.text for t in type_tokens if t.kind == "ident"]
    for name in reversed(ids):
        if name not in TYPE_WRAPPERS and name not in CPP_KEYWORDS:
            return name
    return ids[-1] if ids else ""


def is_view_type(type_tokens):
    texts = [t.text for t in type_tokens]
    if any(t in VIEW_TYPE_IDS for t in texts):
        return True
    return "*" in texts


def split_top_commas(tokens, cursor, start, end):
    """Token-index slices of `tokens[start:end]` split on depth-0 commas."""
    parts = []
    depth = 0
    part_start = start
    i = start
    while i < end:
        t = tokens[i].text
        if t in ("(", "{", "["):
            i = cursor.close(i)
        elif t == "," and depth == 0:
            parts.append((part_start, i))
            part_start = i + 1
        elif t == "<":
            depth += 1
        elif t == ">" and depth > 0:
            depth -= 1
        i += 1
    if part_start < end:
        parts.append((part_start, end))
    return parts


def last_ident(tokens, start, end):
    for i in range(end - 1, start - 1, -1):
        if tokens[i].kind == "ident":
            return tokens[i].text
    return None


def cap_from_tokens(tokens, start, end):
    """`&provider_->catalog_mu_` -> ("catalog_mu_", "provider_")."""
    ids = [t.text for t in tokens[start:end] if t.kind == "ident"]
    if not ids:
        return None, None
    return ids[-1], (ids[-2] if len(ids) >= 2 else None)


class InternalFrontend:
    """Parses one file into FileFacts using the token stream."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.toks = strip_preprocessor(tokenize(scrub(text)))
        self.cur = TokenCursor(self.toks)
        self.facts = make_file_facts(relpath)

    def parse(self):
        self._scope(0, len(self.toks), [])
        return self.facts

    # -- declarations -------------------------------------------------------

    def _skip_angle(self, i):
        """Index past a balanced template argument list starting at `<`."""
        depth = 0
        while i < len(self.toks):
            t = self.toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t in ("(", "{", "["):
                i = self.cur.close(i)
            elif t == ";":
                return i  # malformed; bail out
            i += 1
        return i

    def _scope(self, start, end, stack):
        toks = self.toks
        i = start
        while i < end:
            t = toks[i]
            if t.kind != "ident":
                i += 1
                continue
            if t.text == "template":
                i += 1
                if i < end and toks[i].text == "<":
                    i = self._skip_angle(i)
                continue
            if t.text == "namespace":
                j = i + 1
                name = ""
                while j < end and toks[j].text != "{" and toks[j].text != ";":
                    if toks[j].kind == "ident":
                        name = toks[j].text
                    j += 1
                if j < end and toks[j].text == "{":
                    body_end = self.cur.close(j)
                    self._scope(j + 1, body_end,
                                stack + ([name] if name else []))
                    i = body_end + 1
                else:
                    i = j + 1
                continue
            if t.text in ("class", "struct"):
                j = i + 1
                name = None
                while j < end and toks[j].text not in ("{", ";"):
                    if toks[j].kind == "ident" and name is None and \
                            not is_macro_name(toks[j].text):
                        name = toks[j].text
                    if toks[j].text == "<":
                        j = self._skip_angle(j)
                        continue
                    j += 1
                if j < end and toks[j].text == "{" and name:
                    body_end = self.cur.close(j)
                    self._scope(j + 1, body_end, stack + [name])
                    i = body_end + 1
                else:
                    i = j + 1
                continue
            if t.text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = self.cur.close(j) + 1
                while j < end and toks[j].text != ";":
                    j += 1
                i = j + 1
                continue
            if t.text in ("using", "typedef", "friend", "extern",
                          "static_assert", "public", "private", "protected"):
                j = i + 1
                while j < end and toks[j].text not in (";", ":"):
                    if toks[j].text in ("(", "{"):
                        j = self.cur.close(j)
                    j += 1
                i = j + 1
                continue
            i = self._declaration(i, end, stack)

    def _declaration(self, start, end, stack):
        """Parse one declaration/definition starting at `start`."""
        toks = self.toks
        first_paren = None
        i = start
        while i < end:
            t = toks[i].text
            if t == "(":
                prev = toks[i - 1] if i > 0 else None
                if (first_paren is None and prev is not None and
                        prev.kind == "ident" and
                        not is_macro_name(prev.text) and
                        prev.text not in CPP_KEYWORDS):
                    first_paren = i
                i = self.cur.close(i) + 1
                continue
            if t == "<":
                i = self._skip_angle(i)
                continue
            if t == "[":
                i = self.cur.close(i) + 1
                continue
            if t == ";":
                self._finish_declaration(start, i, first_paren, stack)
                return i + 1
            if t == "{":
                if first_paren is None:
                    # Brace initializer in a variable declaration.
                    i = self.cur.close(i) + 1
                    continue
                body_open = self._body_open(first_paren, i, end)
                if body_open is None:
                    i = self.cur.close(i) + 1
                    continue
                body_close = self.cur.close(body_open)
                self._function_def(start, first_paren, body_open, body_close,
                                   stack)
                return body_close + 1
            i += 1
        return end

    def _body_open(self, first_paren, brace, end):
        """Decide whether the `{` at `brace` opens a function body.

        Walks from the parameter list's close, consuming a constructor
        initializer list if present; returns the body's `{` index or None
        if `brace` belongs to an initializer entry.
        """
        toks = self.toks
        i = self.cur.close(first_paren) + 1
        while i < end:
            t = toks[i].text
            if t == "{":
                return i
            if t == ":" and (i + 1 < end and toks[i + 1].kind == "ident"):
                # Constructor initializer list.
                i += 1
                while i < end:
                    while i < end and (toks[i].kind == "ident" or
                                       toks[i].text in ("::", "<", ">")):
                        if toks[i].text == "<":
                            i = self._skip_angle(i)
                        else:
                            i += 1
                    if i < end and toks[i].text in ("(", "{"):
                        i = self.cur.close(i) + 1
                    if i < end and toks[i].text == ",":
                        i += 1
                        continue
                    break
                continue
            if t == "(":  # noexcept(...), macro annotation args
                i = self.cur.close(i) + 1
                continue
            if t == ";":
                return None
            i += 1
        return None

    def _name_chain(self, first_paren):
        """Walk back from `(` collecting the `A::B::name` chain."""
        toks = self.toks
        chain = [toks[first_paren - 1].text]
        i = first_paren - 2
        while i > 0 and toks[i].text == "::" and toks[i - 1].kind == "ident":
            chain.insert(0, toks[i - 1].text)
            i -= 2
        return chain, i + 1  # chain + index of its first token

    def _annotations(self, start, end):
        """DMX_REQUIRES[_SHARED](caps...) occurrences in tokens[start:end)."""
        toks = self.toks
        out = []
        i = start
        while i < end:
            if toks[i].kind == "ident" and \
                    toks[i].text in ("DMX_REQUIRES", "DMX_REQUIRES_SHARED"):
                exclusive = toks[i].text == "DMX_REQUIRES"
                if i + 1 < end and toks[i + 1].text == "(":
                    close = self.cur.close(i + 1)
                    for (s, e) in split_top_commas(toks, self.cur, i + 2,
                                                   close):
                        cap, recv = cap_from_tokens(toks, s, e)
                        if cap:
                            out.append([cap, recv, exclusive])
                    i = close
            i += 1
        return out

    def _finish_declaration(self, start, semi, first_paren, stack):
        toks = self.toks
        if first_paren is not None:
            chain, _ = self._name_chain(first_paren)
            caps = self._annotations(self.cur.close(first_paren) + 1, semi)
            if caps:
                qual = "::".join(stack + chain)
                self.facts["decl_requires"].setdefault(qual, []).extend(caps)
            return
        # Variable/member declaration: find the declared name (last ident
        # before the terminator, skipping annotation macro arguments).
        name_idx = None
        i = start
        stop = semi
        while i < stop:
            t = toks[i]
            if t.text in ("=", "{"):
                stop = i
                break
            if t.kind == "ident" and is_macro_name(t.text):
                stop = i
                break
            i += 1
        for i in range(stop - 1, start - 1, -1):
            if toks[i].kind == "ident" and toks[i].text not in CPP_KEYWORDS:
                name_idx = i
                break
        if name_idx is None or name_idx == start:
            return
        type_toks = toks[start:name_idx]
        name = toks[name_idx].text
        ctype = core_type(type_toks)
        if ctype and ctype != name:
            self.facts["member_types"][name] = ctype
            # Only true view types count as view members: raw-pointer
            # members are routinely non-owning references to long-lived
            # objects (Env*, Provider*), not borrowed frame state.
            if stack and any(t.text in VIEW_TYPE_IDS for t in type_toks):
                self.facts["view_members"][name] = stack[-1]

    # -- function bodies ----------------------------------------------------

    def _function_def(self, start, first_paren, body_open, body_close, stack):
        toks = self.toks
        chain, chain_start = self._name_chain(first_paren)
        if chain[-1] in CPP_KEYWORDS or is_macro_name(chain[-1]):
            return
        qual = "::".join(stack + chain)
        fn = make_function(qual, self.relpath, toks[chain_start].line)
        ret_toks = toks[start:chain_start]
        fn["view_return"] = is_view_type(ret_toks) or \
            (len(ret_toks) > 0 and ret_toks[-1].text == "&")
        self._parse_params(fn, first_paren)
        fn["requires"] = self._annotations(self.cur.close(first_paren) + 1,
                                           body_open)
        self._parse_body(fn, body_open, body_close, stack)
        self.facts["functions"].append(fn)

    def _parse_params(self, fn, first_paren):
        toks = self.toks
        close = self.cur.close(first_paren)
        for (s, e) in split_top_commas(toks, self.cur, first_paren + 1,
                                       close):
            # Drop a default argument if present.
            for i in range(s, e):
                if toks[i].text == "=":
                    e = i
                    break
            name = last_ident(toks, s, e)
            if name is None or name in CPP_KEYWORDS:
                continue
            texts = [t.text for t in toks[s:e]]
            by_value = "&" not in texts and "*" not in texts
            type_end = e - 1
            while type_end > s and toks[type_end].kind != "ident":
                type_end -= 1
            ctype = core_type(toks[s:type_end])
            if ctype:
                fn["params"][name] = [ctype, by_value]

    def _type_of(self, fn, name):
        if name in fn["locals"]:
            return fn["locals"][name]
        if name in fn["params"]:
            return fn["params"][name][0]
        return self.facts["member_types"].get(name)

    def _parse_body(self, fn, body_open, body_close, stack):
        toks = self.toks
        cur = self.cur
        block_stack = []         # open-brace indices enclosing position i
        lambda_ranges = []       # (open, close) token spans of local lambdas
        manual_locks = []        # [cap, recv, exclusive, line] open Lock()s
        i = body_open + 1
        stmt_start = True
        while i < body_close:
            t = toks[i]
            if t.text == "{":
                block_stack.append(i)
                i += 1
                stmt_start = True
                continue
            if t.text == "}":
                if block_stack:
                    block_stack.pop()
                i += 1
                stmt_start = True
                continue
            if t.text == ";":
                i += 1
                stmt_start = True
                continue
            if t.kind != "ident":
                stmt_start = stmt_start and t.text in (":",)
                i += 1
                continue

            # Local lambda: `auto name = [..](..) .. { body }`.
            if (stmt_start and t.text == "auto" and i + 3 < body_close and
                    toks[i + 1].kind == "ident" and
                    toks[i + 2].text == "=" and toks[i + 3].text == "["):
                lam = self._parse_lambda(fn, toks[i + 1].text, i + 3,
                                         body_close, stack)
                if lam is not None:
                    lambda_ranges.append((lam[0], lam[1]))
                    i = lam[1] + 1
                    stmt_start = True
                    continue

            # RAII lock scope: `MutexLock lock(&mu);`
            if (stmt_start and t.text in LOCK_TYPES and
                    i + 2 < body_close and toks[i + 1].kind == "ident" and
                    toks[i + 2].text == "("):
                close = cur.close(i + 2)
                cap, recv = cap_from_tokens(toks, i + 3, close)
                if cap:
                    scope_close = cur.close(block_stack[-1]) if block_stack \
                        else body_close
                    fn["acquires"].append(
                        [cap, recv, t.text in EXCLUSIVE_LOCK_TYPES,
                         t.line, toks[scope_close].line])
                i = close + 1
                stmt_start = False
                continue

            # return statement: collect referenced identifiers. The cursor
            # is NOT advanced past the expression — calls inside it must
            # still be recorded by the main walk.
            if t.text == "return":
                j = i + 1
                idents = []
                while j < body_close and toks[j].text != ";":
                    if toks[j].text in ("(", "{", "["):
                        inner_close = cur.close(j)
                        # Identifiers inside a call's argument list are the
                        # call's inputs, not the returned object's root; a
                        # subscript's index is a key, not the storage. The
                        # one exception is a view-type constructor, whose
                        # argument IS the borrowed storage. Grouping parens
                        # (no callee) stay transparent.
                        callee = toks[j - 1].text \
                            if (toks[j].text == "(" and j > i + 1 and
                                toks[j - 1].kind == "ident") else None
                        transparent = (
                            toks[j].text == "{" or
                            (toks[j].text == "(" and callee is None) or
                            (callee is not None and callee in VIEW_TYPE_IDS))
                        if transparent:
                            idents.extend(tok.text
                                          for tok in toks[j + 1:inner_close]
                                          if tok.kind == "ident")
                        j = inner_close + 1
                        continue
                    if toks[j].kind == "ident":
                        idents.append(toks[j].text)
                    j += 1
                fn["returns"].append([t.line, idents])
                i += 1
                stmt_start = False
                continue

            # Member store: `member_ = expr;` / `obj->member_ = expr;`
            if (toks[i].kind == "ident" and i + 1 < body_close and
                    toks[i + 1].text == "=" and
                    (i + 2 >= body_close or toks[i + 2].text != "=") and
                    toks[i].text.endswith("_") and
                    toks[i].text not in fn["locals"] and
                    toks[i].text not in fn["params"]):
                j = i + 2
                idents = []
                while j < body_close and toks[j].text != ";":
                    if toks[j].kind == "ident":
                        idents.append(toks[j].text)
                    if toks[j].text in ("(", "{", "["):
                        inner_close = cur.close(j)
                        idents.extend(tok.text
                                      for tok in toks[j + 1:inner_close]
                                      if tok.kind == "ident")
                        j = inner_close + 1
                        continue
                    j += 1
                fn["member_stores"].append([toks[i].line, toks[i].text,
                                            idents])
                i += 2  # past `name =`; calls in the RHS still get scanned
                stmt_start = False
                continue

            # Call site?
            if i + 1 < body_close and toks[i + 1].text == "(" and \
                    t.text not in CPP_KEYWORDS and t.text not in LOCK_TYPES:
                self._record_call(fn, i, block_stack, manual_locks,
                                  body_close)
            elif stmt_start and t.text not in CPP_KEYWORDS:
                self._maybe_local_decl(fn, i, body_close)
            stmt_start = False
            i += 1

        # Unmatched manual Lock()s extend to the function's end.
        for cap, recv, exclusive, line in manual_locks:
            fn["acquires"].append([cap, recv, exclusive, line,
                                   toks[body_close].line])

        # Loops (excluding those owned by local lambda bodies).
        body = toks[body_open + 1:body_close]
        offset = body_open + 1
        call_index = {c["line"]: k for k, c in enumerate(fn["calls"])}
        for (kw, hdr_end, body_end) in find_loop_spans(body):
            abs_kw, abs_hdr, abs_end = kw + offset, hdr_end + offset, \
                body_end + offset
            if any(lo <= abs_kw <= hi for (lo, hi) in lambda_ranges):
                continue
            header_ids = [tok.text for tok in toks[abs_kw:abs_hdr + 1]
                          if tok.kind == "ident"]
            row_ident = next((h for h in header_ids if h in ROW_SOURCE_IDS),
                             None)
            if row_ident is None:
                row_ident = self._range_elem(abs_kw, abs_hdr)
            lo_line = toks[abs_kw].line
            hi_line = toks[abs_end].line
            span_calls = [k for k, c in enumerate(fn["calls"])
                          if lo_line <= c["line"] <= hi_line]
            guarded = any(fn["calls"][k]["guard"] for k in span_calls)
            fn["loops"].append([toks[abs_kw].line, row_ident, guarded,
                                span_calls])
        del call_index

    def _parse_lambda(self, fn, name, bracket, limit, stack):
        """`[caps](params) ... { body }` -> analyze as a nested function."""
        toks = self.toks
        cur = self.cur
        i = cur.close(bracket) + 1
        if i < limit and toks[i].text == "(":
            i = cur.close(i) + 1
        while i < limit and toks[i].text not in ("{", ";"):
            if toks[i].text == "(":
                i = cur.close(i) + 1
                continue
            i += 1
        if i >= limit or toks[i].text != "{":
            return None
        body_close = cur.close(i)
        lam_qual = fn["qual"] + "::" + name
        lam = make_function(lam_qual, self.relpath, toks[bracket].line)
        self._parse_body(lam, i, body_close, stack)
        self.facts["functions"].append(lam)
        fn["lambdas"][name] = lam_qual
        return (bracket, body_close)

    def _record_call(self, fn, i, block_stack, manual_locks, body_close):
        toks = self.toks
        chain = [toks[i].text]
        j = i - 1
        while j > 0 and toks[j].text == "::" and toks[j - 1].kind == "ident":
            chain.insert(0, toks[j - 1].text)
            j -= 2
        name = chain[-1]
        if is_macro_name(name):
            return
        receiver = receiver2 = None
        if j >= 0 and toks[j].text in (".", "->") and j > 0 and \
                toks[j - 1].kind == "ident":
            receiver = toks[j - 1].text
            if j - 2 > 0 and toks[j - 2].text in (".", "->") and \
                    toks[j - 3].kind == "ident":
                receiver2 = toks[j - 3].text

        close = self.cur.close(i + 1)
        parts = split_top_commas(toks, self.cur, i + 2, close)
        arg0 = last_ident(toks, *parts[0]) if parts else None

        # Assertions and manual lock calls become acquisition facts.
        if name in ("AssertHeld", "AssertReaderHeld") and receiver:
            scope_close = self.cur.close(block_stack[-1]) if block_stack \
                else body_close
            fn["acquires"].append([receiver, receiver2,
                                   name == "AssertHeld",
                                   toks[i].line, toks[scope_close].line])
            return
        if name in ("Lock", "LockShared") and receiver:
            manual_locks.append([receiver, receiver2, name == "Lock",
                                 toks[i].line])
            return
        if name in ("Unlock", "UnlockShared") and receiver:
            for k, (cap, recv, _excl, line) in enumerate(manual_locks):
                if cap == receiver:
                    fn["acquires"].append([cap, recv, _excl, line,
                                           toks[i].line])
                    del manual_locks[k]
                    break
            return

        is_guard = name in GUARD_FREE_CALLS or (
            name in GUARD_METHOD_CALLS and receiver is not None and
            "guard" in receiver.lower())
        fn["calls"].append(make_call(name, chain, receiver, receiver2,
                                     toks[i].line, arg0, is_guard))

    def _range_elem(self, kw, hdr_end):
        """Row-scale element type of a range-for header, or None.

        `for (const Row* row : per_key_group)` iterates data no matter what
        the range is called; the declared element type gives it away.
        """
        toks = self.toks
        if toks[kw].text != "for" or kw + 1 > hdr_end or \
                toks[kw + 1].text != "(":
            return None
        depth = 0
        j = kw + 2
        elems = []
        while j < hdr_end:
            text = toks[j].text
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and text == ";":
                return None  # classic for loop: no element declaration
            elif depth == 0 and text == ":":
                return next((e for e in elems if e in ROW_ELEM_TYPES), None)
            elif toks[j].kind == "ident":
                elems.append(text)
            j += 1
        return None

    def _maybe_local_decl(self, fn, i, body_close):
        """`Type name = ...;` / `Type name;` / `auto name = ...` local."""
        toks = self.toks
        j = i
        type_toks = []
        while j < body_close:
            t = toks[j]
            if t.kind == "ident" and t.text not in CPP_KEYWORDS:
                type_toks.append(t)
                j += 1
                if j < body_close and toks[j].text == "<":
                    k = self._skip_angle(j)
                    type_toks.extend(toks[j:k])
                    j = k
                continue
            if t.text in ("::", "&", "*", "const"):
                type_toks.append(t)
                j += 1
                continue
            break
        if len(type_toks) < 2 or j >= body_close:
            return
        if toks[j].text not in ("=", ";", "{"):
            return
        name_tok = type_toks[-1]
        if name_tok.kind != "ident":
            return
        # Function-local statics outlive the frame; views rooted in them
        # never dangle, so they are not tracked as frame locals at all.
        if any(tk.text == "static" for tk in type_toks):
            return
        decl_type = core_type(type_toks[:-1])
        if decl_type and decl_type != "auto":
            fn["locals"][name_tok.text] = decl_type


def parse_internal(relpath, text):
    return InternalFrontend(relpath, text).parse()


# ---------------------------------------------------------------------------
# Clang frontend: extracts the same FileFacts from `-Xclang -ast-dump=json`
# output. The dump is huge (hundreds of MB per TU), so the TranslationUnit's
# top-level declarations are decoded one at a time with raw_decode and
# non-project subtrees are dropped immediately. Clang omits repeated
# file/line fields in source locations; the visitor tracks them statefully
# in traversal order.
# ---------------------------------------------------------------------------


class ClangVisitor:
    def __init__(self, repo_root):
        self.repo_root = str(repo_root)
        self.files = {}          # relpath -> FileFacts
        self.cur_file = None
        self.cur_line = 0

    def facts(self):
        return list(self.files.values())

    def _track(self, node):
        """Update stateful file/line from a loc/range node."""
        for key in ("loc", "range"):
            loc = node.get(key)
            if not isinstance(loc, dict):
                continue
            spelling = loc.get("begin", loc)
            if isinstance(spelling, dict):
                spelling = spelling.get("spellingLoc", spelling)
                if "file" in spelling:
                    self.cur_file = self._rel(spelling["file"])
                if "line" in spelling:
                    self.cur_line = spelling["line"]

    def _rel(self, path):
        path = os.path.normpath(path)
        if path.startswith(self.repo_root + os.sep):
            return os.path.relpath(path, self.repo_root).replace(os.sep, "/")
        return None

    def _file_facts(self):
        if self.cur_file is None:
            return None
        if self.cur_file not in self.files:
            self.files[self.cur_file] = make_file_facts(self.cur_file)
        return self.files[self.cur_file]

    def visit_tu(self, node, prefix=()):
        for decl in node.get("inner", ()):
            self.visit_decl(decl, prefix)

    def visit_decl(self, decl, prefix):
        if not isinstance(decl, dict):
            return
        self._track(decl)
        kind = decl.get("kind", "")
        name = decl.get("name", "")
        if kind in ("NamespaceDecl", "LinkageSpecDecl",
                    "ExternCContextDecl"):
            self.visit_tu(decl, prefix + ((name,) if name else ()))
            return
        if kind == "CXXRecordDecl":
            if decl.get("completeDefinition") and name:
                self.visit_tu(decl, prefix + (name,))
            return
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "CXXConversionDecl"):
            self.visit_function(decl, prefix)
            return
        if kind == "FieldDecl" and name:
            ff = self._file_facts()
            if ff is not None:
                qual_type = (decl.get("type") or {}).get("qualType", "")
                ff["member_types"][name] = self._core(qual_type)
                # Members: only true view types (see the internal frontend).
                if "string_view" in qual_type or "Span<" in qual_type or \
                        "span<" in qual_type:
                    ff["view_members"][name] = prefix[-1] if prefix else ""
            return
        if kind == "VarDecl" and name and prefix:
            ff = self._file_facts()
            if ff is not None:
                qual_type = (decl.get("type") or {}).get("qualType", "")
                ff["member_types"][name] = self._core(qual_type)

    @staticmethod
    def _core(qual_type):
        ids = re.findall(r"[A-Za-z_]\w*", qual_type)
        for name in reversed(ids):
            if name not in TYPE_WRAPPERS and name not in CPP_KEYWORDS:
                return name
        return ids[-1] if ids else ""

    @staticmethod
    def _is_view(qual_type):
        return ("string_view" in qual_type or "Span<" in qual_type or
                "span<" in qual_type or qual_type.rstrip().endswith("*") or
                qual_type.rstrip().endswith("&"))

    def visit_function(self, decl, prefix):
        self._track(decl)
        name = decl.get("name", "")
        if not name:
            return
        ff = self._file_facts()
        body = None
        attrs = []
        for child in decl.get("inner", ()):
            if not isinstance(child, dict):
                continue
            if child.get("kind") == "CompoundStmt":
                body = child
            elif child.get("kind", "").endswith("Attr"):
                attrs.append(child)
        qual = "::".join(prefix + (name,))
        caps = []
        for attr in attrs:
            kind = attr.get("kind", "")
            if "RequiresCapability" in kind or "ExclusiveLocksRequired" in \
                    kind or "SharedLocksRequired" in kind:
                exclusive = "Shared" not in kind and \
                    "shared" not in json.dumps(attr.get("spelling", ""))
                for cap, recv in self._attr_caps(attr):
                    caps.append([cap, recv, exclusive])
        if body is None:
            if caps and ff is not None:
                ff["decl_requires"].setdefault(qual, []).extend(caps)
            return
        if ff is None:
            # Definition in a system header / outside the repo.
            self._scan_skip(body)
            return
        fn = make_function(qual, ff["file"], self.cur_line)
        fn["requires"] = caps
        ret_type = (decl.get("type") or {}).get("qualType", "")
        ret = ret_type.split("(")[0].strip()
        fn["view_return"] = self._is_view(ret)
        for child in decl.get("inner", ()):
            if isinstance(child, dict) and child.get("kind") == "ParmVarDecl":
                self._track(child)
                pname = child.get("name")
                ptype = (child.get("type") or {}).get("qualType", "")
                if pname:
                    by_value = "*" not in ptype and "&" not in ptype
                    fn["params"][pname] = [self._core(ptype), by_value]
        self.stmt_ctx = {"fn": fn, "scope_ends": []}
        self.visit_stmt(body, fn, in_loop=None)
        ff["functions"].append(fn)

    def _attr_caps(self, attr):
        out = []

        def walk(node):
            if isinstance(node, dict):
                if node.get("kind") == "MemberExpr" and node.get("name"):
                    out.append((node["name"].lstrip("->."), None))
                    return
                if node.get("kind") == "DeclRefExpr":
                    ref = node.get("referencedDecl") or {}
                    if ref.get("name"):
                        out.append((ref["name"], None))
                        return
                for child in node.get("inner", ()):
                    walk(child)

        walk(attr)
        return out

    def _scan_skip(self, node):
        """Visit a skipped subtree only to keep file/line state in sync."""
        if not isinstance(node, dict):
            return
        self._track(node)
        for child in node.get("inner", ()):
            self._scan_skip(child)

    # -- statements ---------------------------------------------------------

    def visit_stmt(self, node, fn, in_loop):
        if not isinstance(node, dict):
            return
        self._track(node)
        kind = node.get("kind", "")
        line = self.cur_line
        if kind in ("ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt"):
            names = []
            self._collect_names(node, names, limit=40)
            row_ident = next((n for n in names if n in ROW_SOURCE_IDS), None)
            if row_ident is None and kind == "CXXForRangeStmt":
                row_ident = self._range_elem(node)
            loop = [line, row_ident, False, []]
            fn["loops"].append(loop)
            for child in node.get("inner", ()):
                self.visit_stmt(child, fn, in_loop=loop)
            return
        if kind == "VarDecl":
            name = node.get("name")
            qual_type = (node.get("type") or {}).get("qualType", "")
            ctype = self._core(qual_type)
            # Function-local statics outlive the frame — not frame locals.
            if name and node.get("storageClass") != "static":
                fn["locals"][name] = ctype
            if ctype in LOCK_TYPES:
                caps = []
                self._collect_names(node, caps, limit=10)
                caps = [c for c in caps if c not in LOCK_TYPES and
                        c != name]
                if caps:
                    fn["acquires"].append(
                        [caps[-1], caps[-2] if len(caps) > 1 else None,
                         ctype in EXCLUSIVE_LOCK_TYPES, line, line + 10000])
        if kind in ("CallExpr", "CXXMemberCallExpr", "CXXOperatorCallExpr"):
            self._record_call(node, fn, line, in_loop)
        if kind == "ReturnStmt":
            idents = []
            self._return_roots(node, idents)
            fn["returns"].append([line, idents])
        if kind == "BinaryOperator" and node.get("opcode") == "=":
            inner = [c for c in node.get("inner", ())
                     if isinstance(c, dict)]
            if inner and inner[0].get("kind") == "MemberExpr" and \
                    inner[0].get("name"):
                member = inner[0]["name"].lstrip("->.")
                idents = []
                for rhs in inner[1:]:
                    self._collect_names(rhs, idents, limit=30)
                fn["member_stores"].append([line, member, idents])
        if kind == "LambdaExpr":
            # Attribute the lambda body to the enclosing function: calls in
            # it are reachable whenever the lambda runs, and the common
            # pattern here is define-then-call within the same function.
            pass
        for child in node.get("inner", ()):
            self.visit_stmt(child, fn, in_loop)

    def _range_elem(self, node):
        """Row-scale element type of a CXXForRangeStmt, or None."""
        for child in node.get("inner", ()):
            if not isinstance(child, dict) or child.get("kind") != "VarDecl":
                continue
            name = child.get("name", "")
            if name.startswith("__"):
                continue  # compiler-synthesized __range/__begin/__end
            ctype = self._core((child.get("type") or {}).get("qualType", ""))
            if ctype in ROW_ELEM_TYPES:
                return ctype
        return None

    def _return_roots(self, node, out, limit=30):
        """Collect identifiers a return expression can borrow storage from.

        Mirrors the internal frontend: a call's arguments and a subscript's
        index are not the returned object's root — except a view-type
        constructor, whose argument IS the borrowed storage.
        """
        if len(out) >= limit or not isinstance(node, dict):
            return
        self._track(node)
        kind = node.get("kind", "")
        inner = [c for c in node.get("inner", ()) if isinstance(c, dict)]
        if kind == "ArraySubscriptExpr":
            if inner:
                self._return_roots(inner[0], out, limit)
            return
        if kind == "CXXMemberCallExpr":
            # Receiver chain only (inner[0] is the MemberExpr): the call's
            # result may alias its receiver, never its arguments.
            if inner:
                self._return_roots(inner[0], out, limit)
            return
        if kind in ("CallExpr", "CXXOperatorCallExpr"):
            ctype = self._core((node.get("type") or {}).get("qualType", ""))
            if ctype not in VIEW_TYPE_IDS:
                return
        if kind == "MemberExpr" and node.get("name"):
            out.append(node["name"].lstrip("->."))
        ref = node.get("referencedDecl")
        if isinstance(ref, dict) and ref.get("name"):
            out.append(ref["name"])
        for child in inner:
            self._return_roots(child, out, limit)

    def _collect_names(self, node, out, limit):
        if len(out) >= limit or not isinstance(node, dict):
            return
        self._track(node)
        if node.get("kind") == "MemberExpr" and node.get("name"):
            out.append(node["name"].lstrip("->."))
        ref = node.get("referencedDecl")
        if isinstance(ref, dict) and ref.get("name"):
            out.append(ref["name"])
        for child in node.get("inner", ()):
            self._collect_names(child, out, limit)

    def _record_call(self, node, fn, line, in_loop):
        callee = None
        recv_type = None
        inner = [c for c in node.get("inner", ()) if isinstance(c, dict)]
        if not inner:
            return

        def find_callee(n, depth=0):
            nonlocal callee, recv_type
            if not isinstance(n, dict) or depth > 6 or callee:
                return
            if n.get("kind") == "MemberExpr" and n.get("name"):
                callee = n["name"].lstrip("->.")
                for c in n.get("inner", ()):
                    if isinstance(c, dict):
                        qt = (c.get("type") or {}).get("qualType", "")
                        if qt:
                            recv_type = self._core(qt)
                        break
                return
            ref = n.get("referencedDecl")
            if isinstance(ref, dict) and ref.get("name") and \
                    n.get("kind") == "DeclRefExpr":
                callee = ref["name"]
                return
            for c in n.get("inner", ()):
                find_callee(c, depth + 1)

        find_callee(inner[0])
        if not callee or callee == "operator()":
            return
        arg_names = []
        for arg in inner[1:2]:
            self._collect_names(arg, arg_names, limit=5)
        is_guard = callee in GUARD_FREE_CALLS or (
            callee in GUARD_METHOD_CALLS and recv_type == "ExecGuard")
        chain = [recv_type, callee] if recv_type else [callee]
        call = make_call(callee, chain, None, None, line,
                         arg_names[-1] if arg_names else None, is_guard)
        call["recv_type"] = recv_type
        fn["calls"].append(call)
        if in_loop is not None:
            in_loop[3].append(len(fn["calls"]) - 1)
            if is_guard:
                in_loop[2] = True


def clang_version(clangxx):
    try:
        out = subprocess.run([clangxx, "--version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.splitlines()[0] if out.stdout else "unknown"
    except Exception:  # noqa: BLE001
        return "unknown"


def parse_clang_tu(clangxx, entry, repo_root):
    """Run clang on one compile_commands entry, return [FileFacts...]."""
    args = entry.get("arguments")
    if not args:
        args = shlex.split(entry.get("command", ""))
    cmd = [clangxx]
    skip_next = False
    for arg in args[1:]:
        if skip_next:
            skip_next = False
            continue
        if arg in ("-o",):
            skip_next = True
            continue
        if arg in ("-c",):
            continue
        cmd.append(arg)
    cmd += ["-fsyntax-only", "-Xclang", "-ast-dump=json",
            "-Wno-everything"]
    proc = subprocess.run(cmd, cwd=entry.get("directory", str(repo_root)),
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(
            f"clang ast-dump failed for {entry.get('file')}: "
            f"{proc.stderr.strip()[:400]}")
    visitor = ClangVisitor(repo_root)
    dump = proc.stdout
    # Stream the TranslationUnitDecl's inner array one declaration at a
    # time so peak memory tracks the largest top-level subtree, not the
    # whole dump.
    marker = dump.find('"inner"')
    start = dump.find("[", marker) + 1 if marker >= 0 else -1
    if start <= 0:
        raise RuntimeError("unrecognized ast-dump shape")
    decoder = json.JSONDecoder()
    i = start
    n = len(dump)
    while i < n:
        while i < n and dump[i] in " \t\r\n,":
            i += 1
        if i >= n or dump[i] == "]":
            break
        decl, i = decoder.raw_decode(dump, i)
        visitor.visit_decl(decl, ())
    return visitor.facts()


# ---------------------------------------------------------------------------
# Fact cache: extracted FileFacts keyed by content hash (+ frontend id and
# compiler version), stored under <cache-dir>/ (default
# build-lint/ast-cache/). Raw AST dumps are never kept.
# ---------------------------------------------------------------------------


class FactCache:
    def __init__(self, cache_dir):
        self.dir = Path(cache_dir) if cache_dir else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(*parts):
        h = hashlib.sha256()
        for p in parts:
            h.update(p.encode() if isinstance(p, str) else p)
            h.update(b"\x00")
        return h.hexdigest()

    def get(self, key):
        if self.dir is None:
            return None
        path = self.dir / f"{key}.json"
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def put(self, key, value):
        if self.dir is None:
            return
        tmp = self.dir / f".{key}.tmp"
        tmp.write_text(json.dumps(value))
        tmp.replace(self.dir / f"{key}.json")


# ---------------------------------------------------------------------------
# Whole-program model: merge per-file facts, resolve calls, run fixpoints.
# ---------------------------------------------------------------------------


class Program:
    def __init__(self, file_facts, config):
        self.config = config
        self.files = file_facts                  # relpath -> FileFacts
        self.functions = []                      # flat list of fn dicts
        self.by_suffix = {}                      # last component -> [fn]
        self.member_types = {}                   # name -> {types}
        self.view_members = {}                   # name -> class
        for ff in file_facts.values():
            self.functions.extend(ff["functions"])
            for name, ctype in ff["member_types"].items():
                self.member_types.setdefault(name, set()).add(ctype)
            self.view_members.update(ff["view_members"])
        for fn in self.functions:
            comps = fn["qual"].split("::")
            self.by_suffix.setdefault(comps[-1], []).append(fn)
            fn["_comps"] = comps
        self._apply_decl_requires()
        self._resolve_all()
        self._fixpoint_guard()
        self._fixpoint_block()
        self._reachability()

    # -- helpers ------------------------------------------------------------

    def _apply_decl_requires(self):
        decls = {}
        for ff in self.files.values():
            for qual, caps in ff["decl_requires"].items():
                decls.setdefault(tuple(qual.split("::")[-2:]), []).extend(
                    caps)
        for fn in self.functions:
            suffix = tuple(fn["_comps"][-2:])
            if suffix in decls:
                known = {tuple(c[:2]) for c in fn["requires"]}
                for cap in decls[suffix]:
                    if tuple(cap[:2]) not in known:
                        fn["requires"].append(cap)

    def _suffix_match(self, chain):
        """All functions whose qualified name ends with `chain`."""
        out = []
        for fn in self.by_suffix.get(chain[-1], ()):
            if fn["_comps"][-len(chain):] == list(chain):
                out.append(fn)
        return out

    def type_of(self, fn, name):
        if name is None:
            return None
        if name in fn["locals"]:
            return fn["locals"][name]
        if name in fn["params"]:
            return fn["params"][name][0]
        types = self.member_types.get(name)
        if types and len(types) == 1:
            return next(iter(types))
        return None

    def resolve(self, fn, call):
        if "_resolved" in call:
            return call["_resolved"]
        out = []
        name = call["name"]
        if name in fn["lambdas"]:
            out = [f for f in self.functions
                   if f["qual"] == fn["lambdas"][name]]
        elif len(call["chain"]) >= 2 and call["chain"][0]:
            out = self._suffix_match(call["chain"])
            if not out:
                out = self._suffix_match(call["chain"][1:])
        if not out:
            recv_type = call.get("recv_type") or \
                self.type_of(fn, call.get("recv"))
            if recv_type:
                out = self._suffix_match([recv_type, name])
            elif call.get("recv") is None:
                # Unqualified free call: resolve when unambiguous, trying
                # the enclosing class's own methods first.
                if len(fn["_comps"]) >= 2:
                    out = self._suffix_match([fn["_comps"][-2], name])
                if not out:
                    candidates = self.by_suffix.get(name, ())
                    if len(candidates) == 1:
                        out = list(candidates)
        call["_resolved"] = out
        return out

    def sanctioned(self, fn):
        for key in self.config["sanctioned"]:
            chain = key.split("::")
            if fn["_comps"][-len(chain):] == chain:
                return True
        return False

    def cap_key(self, fn, cap, recv):
        """Qualify a capability name by its owner's type when known."""
        owner = self.type_of(fn, recv) if recv else None
        if owner is None and len(fn["_comps"]) >= 2:
            owner = fn["_comps"][-2]
        return f"{owner}::{cap}" if owner else cap

    def is_blocking_primitive(self, fn, call):
        if call["name"] in ALWAYS_BLOCKING_CALLS:
            return True
        if call["name"] in RECEIVER_BLOCKING_CALLS:
            recv_type = call.get("recv_type") or \
                self.type_of(fn, call.get("recv"))
            if recv_type in BLOCKING_TYPES:
                return True
        return False

    # -- fixpoints ----------------------------------------------------------

    def _resolve_all(self):
        for fn in self.functions:
            for call in fn["calls"]:
                self.resolve(fn, call)

    def _fixpoint_guard(self):
        for fn in self.functions:
            fn["_guard"] = (fn["_comps"][-1] in GUARD_FREE_CALLS or
                            (len(fn["_comps"]) >= 2 and
                             fn["_comps"][-2] == "ExecGuard") or
                            any(c["guard"] for c in fn["calls"]))
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn["_guard"]:
                    continue
                for call in fn["calls"]:
                    if any(g["_guard"] for g in call["_resolved"]):
                        fn["_guard"] = True
                        changed = True
                        break

    def _fixpoint_block(self):
        for fn in self.functions:
            fn["_block"] = None
            for call in fn["calls"]:
                if self.is_blocking_primitive(fn, call):
                    fn["_block"] = (call, None)
                    break
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn["_block"] is not None:
                    continue
                for call in fn["calls"]:
                    for g in call["_resolved"]:
                        if g["_block"] is not None and \
                                not self.sanctioned(g):
                            fn["_block"] = (call, g)
                            changed = True
                            break
                    if fn["_block"] is not None:
                        break

    def _reachability(self):
        roots = []
        for root in self.config["roots"]:
            roots.extend(self._suffix_match(root.split("::")))
        seen = set()
        work = list(roots)
        while work:
            fn = work.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            for call in fn["calls"]:
                work.extend(call["_resolved"])
        for fn in self.functions:
            fn["_reach"] = id(fn) in seen

    def block_chain(self, fn_or_pair, depth=5):
        """Human-readable witness chain for a blocking verdict."""
        names = []
        call, nxt = fn_or_pair
        while depth > 0:
            names.append(call["name"])
            if nxt is None or nxt["_block"] is None:
                break
            call, nxt = nxt["_block"]
            depth -= 1
        return " -> ".join(names)


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------


def check_lock_blocking(program):
    io_caps = program.config["io_caps"]
    used_io_caps = set()
    for fn in program.functions:
        intervals = []
        for cap, recv, exclusive in fn["requires"]:
            key = program.cap_key(fn, cap, recv)
            if key in io_caps:
                used_io_caps.add(key)
                continue
            if exclusive:
                intervals.append((key, 0, 10 ** 9))
        for cap, recv, exclusive, line, end_line in fn["acquires"]:
            key = program.cap_key(fn, cap, recv)
            if key in io_caps:
                used_io_caps.add(key)
                continue
            if exclusive:
                intervals.append((key, line, end_line))
        if not intervals:
            continue
        for call in fn["calls"]:
            held = [key for (key, lo, hi) in intervals
                    if lo <= call["line"] <= hi]
            if call["name"] in ("WaitFor", "Wait") and call["arg0"]:
                held = [k for k in held
                        if k.split("::")[-1] != call["arg0"]]
            if not held:
                continue
            reason = None
            if program.is_blocking_primitive(fn, call):
                reason = f"'{call['name']}' blocks"
            else:
                for g in call["_resolved"]:
                    if g["_block"] is not None and not program.sanctioned(g):
                        chain = program.block_chain(g["_block"])
                        reason = (f"'{g['qual']}' may block "
                                  f"(via {chain})")
                        break
            if reason:
                yield Violation(
                    LOCK_BLOCKING_CALL, fn["file"], call["line"],
                    f"{reason} while '{held[0]}' is held exclusively in "
                    f"{fn['qual']}; hoist the I/O outside the critical "
                    f"section or sanction the protocol in "
                    f"SANCTIONED_BLOCKING")
    program.config["_used_io_caps"] = used_io_caps


def check_guard_loops(program):
    for fn in program.functions:
        if not fn["_reach"]:
            continue
        for line, row_ident, guarded, call_idx in fn["loops"]:
            if row_ident is None or guarded:
                continue
            if any(g["_guard"]
                   for k in call_idx
                   for g in fn["calls"][k]["_resolved"]):
                continue
            yield Violation(
                GUARD_UNREACHABLE_LOOP, fn["file"], line,
                f"row-scale loop (over '{row_ident}') in {fn['qual']} is "
                f"reachable from an execution root but no guard checkpoint "
                f"(GuardCheck/GuardCharge*) is reachable in its cycle; add "
                f"one per iteration so deadlines and row budgets trip")


def check_view_escape(program):
    for fn in program.functions:
        owning = {n for n, t in fn["locals"].items() if t in OWNING_TYPES}
        owning |= {n for n, (t, by_value) in fn["params"].items()
                   if by_value and t in OWNING_TYPES}
        if fn["view_return"]:
            for line, idents in fn["returns"]:
                roots = [n for n in idents if n in owning]
                if roots:
                    yield Violation(
                        VIEW_ESCAPE, fn["file"], line,
                        f"{fn['qual']} returns a view/pointer rooted in "
                        f"frame-local '{roots[0]}' which dies with the "
                        f"call; return an owning value or take the buffer "
                        f"from the caller")
        for line, member, idents in fn["member_stores"]:
            if member not in program.view_members:
                continue
            roots = [n for n in idents if n in owning]
            if roots:
                yield Violation(
                    VIEW_ESCAPE, fn["file"], line,
                    f"{fn['qual']} stores a view of frame-local "
                    f"'{roots[0]}' into view-typed member '{member}' "
                    f"(outlives the frame); copy into owned storage")


def check_sanctions(program, config_path):
    """stale-sanction: sanctioned entries that match nothing scanned."""
    for key in sorted(program.config["sanctioned"]):
        chain = key.split("::")
        if not program._suffix_match(chain):
            yield Violation(
                STALE_SANCTION, config_path, 1,
                f"SANCTIONED_BLOCKING entry '{key}' matches no function in "
                f"the scanned tree; remove or fix the entry")
    used = program.config.get("_used_io_caps", set())
    seen_caps = set()
    for fn in program.functions:
        for cap, recv, _ in fn["requires"]:
            seen_caps.add(program.cap_key(fn, cap, recv))
        for cap, recv, _, _, _ in fn["acquires"]:
            seen_caps.add(program.cap_key(fn, cap, recv))
    for cap in sorted(program.config["io_caps"]):
        if cap not in used and cap not in seen_caps:
            yield Violation(
                STALE_SANCTION, config_path, 1,
                f"IO_CAPS entry '{cap}' matches no capability in the "
                f"scanned tree; remove or fix the entry")


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def discover_sources(root):
    src = root / "src"
    out = []
    for base in (src,):
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cc", ".h") and path.is_file():
                rel = path.relative_to(root).as_posix()
                if "lint_fixtures" in rel or "deep_lint_fixtures" in rel:
                    continue
                out.append(rel)
    return out


def load_config(root):
    config = {
        "roots": list(DEFAULT_ROOTS),
        "sanctioned": dict(SANCTIONED_BLOCKING),
        "io_caps": set(IO_CAPS),
        "check_sanctions": True,
        "config_path": "tools/dmx_deep_lint.py",
    }
    override = root / "CONFIG.json"
    if override.is_file():
        data = json.loads(override.read_text())
        if "roots" in data:
            config["roots"] = data["roots"]
        if "sanctioned" in data:
            config["sanctioned"] = data["sanctioned"]
        if "io_caps" in data:
            config["io_caps"] = set(data["io_caps"])
        if "check_sanctions" in data:
            config["check_sanctions"] = data["check_sanctions"]
        config["config_path"] = "CONFIG.json"
    return config


def gather_facts(root, frontend, compdb_path, cache_dir, verbose=False):
    """Returns (relpath -> FileFacts, frontend actually used)."""
    clangxx = shutil.which("clang++")
    use_clang = False
    entries = []
    if frontend in ("clang", "auto") and clangxx and compdb_path and \
            Path(compdb_path).is_file():
        entries = [e for e in json.loads(Path(compdb_path).read_text())
                   if Path(e.get("file", "")).suffix == ".cc" and
                   "/src/" in e.get("file", "")]
        use_clang = bool(entries)
    if frontend == "clang" and not use_clang:
        raise SystemExit("dmx_deep_lint: --frontend=clang needs clang++ on "
                         "PATH and a compile_commands.json (--compdb)")

    cache = FactCache(cache_dir)
    files = {}
    sources = discover_sources(root)
    texts = {rel: (root / rel).read_text(encoding="utf-8", errors="replace")
             for rel in sources}
    covered = set()

    if use_clang:
        version = clang_version(clangxx)
        headers_digest = FactCache.key(*(texts[r] for r in sorted(texts)
                                         if r.endswith(".h")))
        for entry in entries:
            rel = os.path.relpath(os.path.normpath(entry["file"]),
                                  str(root)).replace(os.sep, "/")
            if rel not in texts:
                continue
            key = FactCache.key(FACTS_VERSION, "clang", version,
                                json.dumps(entry, sort_keys=True),
                                texts[rel], headers_digest)
            cached = cache.get(key)
            if cached is None:
                try:
                    cached = parse_clang_tu(clangxx, entry, root)
                except (RuntimeError, subprocess.SubprocessError,
                        ValueError, OSError) as err:
                    print(f"dmx_deep_lint: clang frontend failed on {rel} "
                          f"({err}); using internal frontend", file=sys.stderr)
                    cached = None
                if cached is not None:
                    cache.put(key, cached)
            if cached is not None:
                for ff in cached:
                    if ff["file"]:
                        merge_file_facts(files, ff)
                        covered.add(ff["file"])
                if verbose:
                    print(f"  clang: {rel}")

    for rel in sources:
        if rel in covered:
            continue
        key = FactCache.key(FACTS_VERSION, "internal", texts[rel], rel)
        cached = cache.get(key)
        if cached is None:
            cached = parse_internal(rel, texts[rel])
            cache.put(key, cached)
        merge_file_facts(files, cached)
        if verbose:
            print(f"  internal: {rel}")

    return files, ("clang+internal" if use_clang else "internal")


def merge_file_facts(files, ff):
    """Merge facts for one file, deduping functions by (file, line, qual)."""
    rel = ff["file"]
    if rel not in files:
        files[rel] = ff
        return
    dst = files[rel]
    seen = {(f["qual"], f["line"]) for f in dst["functions"]}
    for fn in ff["functions"]:
        if (fn["qual"], fn["line"]) not in seen:
            dst["functions"].append(fn)
    for key in ("member_types", "view_members"):
        dst[key].update(ff[key])
    for qual, caps in ff["decl_requires"].items():
        dst["decl_requires"].setdefault(qual, []).extend(caps)


def collect_suppressions(root, sources):
    """relpath -> [(rule, comment_line, {lines silenced})], plus bad ones."""
    table = {}
    bad = []
    for rel in sources:
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
        entries = []
        for line_no, line in enumerate(text.split("\n"), start=1):
            for rule in SUPPRESS_RE.findall(line):
                if rule not in ALL_RULES:
                    bad.append(Violation(
                        BAD_SUPPRESSION, rel, line_no,
                        f"allow() names unknown rule '{rule}' (known: "
                        f"{', '.join(ALL_RULES)})"))
                    continue
                entries.append([rule, line_no, {line_no, line_no + 1},
                                False])
        if entries:
            table[rel] = entries
    return table, bad


def run_analysis(root, frontend="internal", compdb=None, cache_dir=None,
                 verbose=False):
    root = Path(root).resolve()
    config = load_config(root)
    files, _used = gather_facts(root, frontend, compdb, cache_dir, verbose)
    program = Program(files, config)

    raw = []
    raw.extend(check_lock_blocking(program))
    raw.extend(check_guard_loops(program))
    raw.extend(check_view_escape(program))
    if config["check_sanctions"]:
        raw.extend(check_sanctions(program, config["config_path"]))

    suppress_table, bad = collect_suppressions(root, discover_sources(root))
    violations = list(bad)
    for v in raw:
        entries = suppress_table.get(v.path, ())
        silenced = False
        for entry in entries:
            if entry[0] == v.rule and v.line in entry[2]:
                entry[3] = True
                silenced = True
        if not silenced:
            violations.append(v)
    for rel, entries in suppress_table.items():
        for rule, line_no, _lines, used in entries:
            if not used:
                violations.append(Violation(
                    UNUSED_SUPPRESSION, rel, line_no,
                    f"dmx-deep-lint allow({rule}) silences nothing; remove "
                    f"it (stale suppressions hide future regressions)"))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def self_test(fixtures_dir, cache_dir=None):
    if not fixtures_dir.is_dir():
        print(f"dmx_deep_lint: no fixtures at {fixtures_dir}",
              file=sys.stderr)
        return 1
    failures = 0
    cases = sorted(p for p in fixtures_dir.iterdir() if p.is_dir())
    if not cases:
        print("dmx_deep_lint: fixture directory is empty", file=sys.stderr)
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
        actual = {f"{v.rule}:{v.path}:{v.line}"
                  for v in run_analysis(case, frontend="internal",
                                        cache_dir=None)}
        if actual == expected:
            print(f"PASS {case.name}: "
                  f"{len(actual) or 'no'} finding(s), as expected")
        else:
            failures += 1
            print(f"FAIL {case.name}:")
            for missing in sorted(expected - actual):
                print(f"  expected but not reported: {missing}")
            for extra in sorted(actual - expected):
                print(f"  reported but not expected: {extra}")
    if failures:
        print(f"dmx_deep_lint self-test: {failures}/{len(cases)} case(s) "
              f"failed")
        return 1
    print(f"dmx_deep_lint self-test: all {len(cases)} case(s) passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="tree to analyze (default: this repository)")
    parser.add_argument("--frontend", choices=("auto", "clang", "internal"),
                        default="auto",
                        help="fact frontend (auto: clang when available)")
    parser.add_argument("--compdb", type=Path, default=None,
                        help="compile_commands.json for the clang frontend "
                             "(default: <root>/build-lint/"
                             "compile_commands.json)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="fact cache directory (default: "
                             "<root>/build-lint/ast-cache)")
    parser.add_argument("--self-test", action="store_true",
                        help="replay the seeded fixtures")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-file frontend choice")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(Path(__file__).resolve().parent /
                         "deep_lint_fixtures")

    root = args.root.resolve()
    compdb = args.compdb or (root / "build-lint" / "compile_commands.json")
    cache_dir = args.cache_dir or (root / "build-lint" / "ast-cache")
    violations = run_analysis(root, frontend=args.frontend, compdb=compdb,
                              cache_dir=cache_dir, verbose=args.verbose)
    for violation in violations:
        print(violation)
    if violations:
        print(f"dmx_deep_lint: {len(violations)} finding(s)",
              file=sys.stderr)
        return 1
    print("dmx_deep_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
