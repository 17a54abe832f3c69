"""latch-discipline: no blocking work while a bg3 latch is held.

Seeds: functions annotated BG3_BLOCKING (cloud-store I/O, WAL append/flush,
thread-pool waits, retry/backoff sleeps, admission-queue waits) plus a small
set of blocking primitives recognized by name (sleep_for, condition-variable
waits, thread joins). Blocking-ness propagates transitively over the
name-resolved call graph; a function annotated BG3_NO_BLOCKING stops
propagation (it asserts the property) but is itself flagged if its body can
reach a blocking call.

Held regions come from the source model: RAII guards (MutexLock /
WriterMutexLock / ReaderMutexLock, std lock holders over bg3 types),
explicit Lock()/Unlock() pairs, and BG3_REQUIRES preconditions (the whole
body counts as held). std::mutex members are normally out of scope — only
the annotated bg3::Mutex / bg3::SharedMutex capabilities participate —
with one exception: inside the WAL pipeline classes (WAL_PIPELINE_CLASSES)
std::mutex guard regions are checked too, because blocking cloud I/O under
the writer or ledger mutex would stall every appender behind one round
trip, the exact head-of-line blocking the pipeline exists to remove.
Condition-variable waits that pass the guard variable are exempt there
(the wait releases the lock it holds).

A call inside a held region that resolves to a blocking function is an
error. Accepted exceptions (e.g. the Bw-tree's paged-leaf I/O under the
leaf latch, which is the paper's design) live in baseline.json with reasons.
"""

from __future__ import annotations

from . import Finding

BUILTIN_BLOCKING = {"sleep_for", "sleep_until", "wait", "wait_for",
                    "wait_until", "join"}

# Classes whose plain-std::mutex guard regions are checked (DESIGN.md §5.9):
# the pipelined WAL's enqueue mutex and commit ledger, and the append
# workers. Everything else keeps the bg3-capabilities-only scope.
WAL_PIPELINE_CLASSES = {"WalWriter", "AppendPipeline"}

# Condition-variable waits: blocking, but they *release* the lock they are
# given, so a wait naming the region's guard variable is not "blocking
# while holding" that latch.
CV_WAITS = {"wait", "wait_for", "wait_until"}


def _annotated(index, key, macro):
    return macro in index.annotations_for(*key)


def _call_witness(index, call, fn, blocking):
    """Why does this call block? Returns a human string or None."""
    if call.name in BUILTIN_BLOCKING:
        return f"calls {call.name}()"
    cands = index.resolve_callees(call, fn)
    for c in cands:
        if _annotated(index, c.key, "BG3_NO_BLOCKING"):
            return None  # callee asserts it never blocks; trust (and check) it
    for c in cands:
        if c.key in blocking:
            why = blocking[c.key]
            if why == "annotated":
                return f"calls {c.qname}() [BG3_BLOCKING]"
            return f"calls {c.qname}() which {why}"
    return None


def compute_blocking(index):
    """key -> reason, for every function that can block."""
    blocking = {}
    for key in index.by_key:
        if _annotated(index, key, "BG3_BLOCKING"):
            blocking[key] = "annotated"
    changed = True
    while changed:
        changed = False
        for fm in index.models.values():
            for fn in fm.functions:
                if fn.body is None or fn.is_lambda:
                    continue
                if fn.key in blocking:
                    continue
                if _annotated(index, fn.key, "BG3_NO_BLOCKING"):
                    continue  # don't propagate through asserted-nonblocking
                for call in fm.calls(fn):
                    w = _call_witness(index, call, fn, blocking)
                    if w:
                        blocking[fn.key] = w
                        changed = True
                        break
    return blocking


def run(index, config):
    findings = []
    blocking = compute_blocking(index)

    for path, fm in sorted(index.models.items()):
        for fn in fm.functions:
            if fn.body is None or fn.is_lambda:
                continue
            # 1) BG3_NO_BLOCKING functions that can in fact block.
            if _annotated(index, fn.key, "BG3_NO_BLOCKING"):
                for call in fm.calls(fn):
                    w = _call_witness(index, call, fn, blocking)
                    if w:
                        findings.append(Finding(
                            pass_name="latch-discipline", file=path,
                            line=call.line, func=fn.qname,
                            detail=f"no-blocking:{call.name}",
                            message=(f"declared BG3_NO_BLOCKING but {w}")))
            # 2) blocking calls while a bg3 latch is held.
            regions = index.lock_regions(fn)
            if not regions:
                continue
            for call in fm.calls(fn):
                for region in regions:
                    if not (region.start <= call.tok < region.end):
                        continue
                    if region.cap == "std":
                        # std::mutex regions participate only inside the WAL
                        # pipeline classes.
                        if fn.cls not in WAL_PIPELINE_CLASSES:
                            continue
                        # cv.wait(lock, ...) releases the guard's lock.
                        if (call.name in CV_WAITS and region.var
                                and region.var in call.args.split()):
                            continue
                    elif region.site.startswith("?"):
                        continue  # unresolved lock expression: stay quiet
                    w = _call_witness(index, call, fn, blocking)
                    if w is None:
                        continue
                    held = region.site
                    if region.cap == "std" and held.startswith("?"):
                        # std members are not registered mutex sites; name
                        # the region by class and source spelling instead.
                        held = f"{fn.cls}::{region.expr.lstrip('&')}"
                    how = {"guard": "RAII guard",
                           "explicit": "explicit Lock()",
                           "requires": "BG3_REQUIRES precondition"}[region.kind]
                    findings.append(Finding(
                        pass_name="latch-discipline", file=path,
                        line=call.line, func=fn.qname,
                        detail=f"under-lock:{held}->{call.name}",
                        message=(f"{w} while holding {held} ({how} at line "
                                 f"{region.line}); blocking under a latch "
                                 f"serializes every waiter behind the slow "
                                 f"operation")))
                    break  # one finding per call site is enough
    return findings
