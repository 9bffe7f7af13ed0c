#!/usr/bin/env python3
"""Attribute sigprof.so samples to cost categories.

    attribute.py <executable> <run.prof> [--sites <category>]

Every sample is classified by its inline chain (addr2line -i), walked from
the leaf outwards to the first frame that names a category or a file of this
repository: what the CPU was executing, not who asked for it. `--sites`
answers the second question for one row of the table: it prints, per sample
of that row, the first file:line of this repository on the chain. See
README.md.
"""
import bisect
import collections
import os
import re
import subprocess
import sys

# A sample further than this past its nearest exported symbol is in some
# static function the dynamic symbol table does not name.
STATIC_CODE_BYTES = 4096

# First match wins; tried on one frame's source path.
CATEGORIES = [
    ("mutex", ("futex.rs", "sync/poison", "sync/mutex", "pl-shim")),
    ("confined", ("simkit/src/confined.rs",)),
    # Switching onto a process's stack and back, and the baton around it.
    ("process hand-off", ("simkit/src/process.rs", "simkit/src/coroutine.rs")),
    ("Arc counts", ("alloc/src/sync.rs",)),
    ("hash", ("hashbrown", "/hash/", "collections/hash")),
    ("vec / heap", ("alloc/src/vec", "alloc/src/raw_vec", "binary_heap", "vec_deque")),
]
CRATE_FILE = re.compile(r"(?:crates|perfbench)/(?:([\w-]+)/)?src/([\w/]+\.rs)")


def classify(chain):
    """Category of an inline chain (`path:line` frames), leaf first.

    A primitive inlined from core/alloc/std (an atomic op, `Option::map`,
    `ptr::copy`) counts for the first enclosing frame that says what it was
    for: `compare_exchange` under `futex.rs` is the mutex, under
    `alloc/src/sync.rs` an `Arc` count, directly under a file of this
    repository one of that file's own atomics.
    """
    for path in chain:
        for name, needles in CATEGORIES:
            if any(n in path for n in needles):
                return name
        if m := CRATE_FILE.search(path):
            if "core/src/sync/atomic.rs" in chain[0]:
                return "other atomics"
            return f"{m.group(1) or 'perfbench'}/{m.group(2)}"
    return "unresolved" if chain[0].startswith("??") else "std (other)"


def site(chain):
    """The first `crate/file.rs:line` of this repository on a chain."""
    for frame in chain:
        if m := CRATE_FILE.search(frame):
            # addr2line may add " (discriminator N)" after the line.
            line = (frame[m.end():].lstrip(":").split() or ["?"])[0]
            return f"{m.group(1) or 'perfbench'}/{m.group(2)}:{line}"
    return "(no repository frame)"


def inline_chains(exe, addrs):
    """`path:line` of the frames inlined at each file address, leaf first."""
    out = subprocess.run(
        ["addr2line", "-e", exe, "-i", "-a"],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, chain = {}, None
    for line in out:
        if line.startswith("0x"):
            chain = chains.setdefault(int(line, 16), [])
        else:
            chain.append(line)
    return chains


def nearest_symbol(lib):
    """addr -> (name of the nearest dynamic symbol at or below it, distance)."""
    table = []
    for line in subprocess.run(["nm", "-D", "--defined-only", lib],
                               capture_output=True, text=True).stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            table.append((int(parts[0], 16), parts[2].split("@")[0]))
    table.sort()
    starts = [a for a, _ in table]

    def lookup(a):
        if i := bisect.bisect_right(starts, a):
            return table[i - 1][1], a - starts[i - 1]
        return "?", a

    return lookup


def library_row(lib, sym, off):
    """`libc: malloc`, or `libc: (static code near <export>)` when the sample
    is too far past the export to be part of it."""
    if off > STATIC_CODE_BYTES:
        sym = f"(static code near {sym})"
    return f"{lib.rsplit('/', 1)[-1].split('.')[0]}: {sym}"


def main(exe, prof, sites_of=None):
    maps, samples = [], []
    for line in open(prof):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        elif kind == "S":
            samples.append(int(rest, 16))
    exe_name = exe.rsplit("/", 1)[-1]
    # An object's load base: where its offset-0 mapping starts (PIE and .so).
    base = {}
    for lo, _, off, path in maps:
        if off == 0:
            base.setdefault(path, lo)
    in_exe, rows, symbolisers = [], collections.Counter(), {}
    # Per library row, how often each (offset past its symbol, offset into the
    # library) was sampled.
    offsets = collections.defaultdict(collections.Counter)
    for s in samples:
        path = next((p for lo, hi, _, p in maps if lo <= s < hi), "[unmapped]")
        if path.rsplit("/", 1)[-1] == exe_name:
            in_exe.append(s - base[path])
        elif path.startswith("/") and path in base:
            lookup = symbolisers.setdefault(path, nearest_symbol(path))
            sym, off = lookup(s - base[path])
            row = library_row(path, sym, off)
            rows[row] += 1
            offsets[row][off, s - base[path]] += 1
        else:
            rows[path] += 1
    chains = inline_chains(exe, sorted(set(in_exe)))
    callers = collections.Counter()
    for a in in_exe:
        chain = chains.get(a) or ["??"]
        row = classify(chain)
        rows[row] += 1
        if row == sites_of:
            callers[site(chain)] += 1
    total = len(samples)
    print(f"{total} samples, {prof}")
    if sites_of is not None:
        print(f"{rows[sites_of]} in '{sites_of}', by the first repository frame outwards of it")
        rows = callers
    for name, n in rows.most_common():
        at = ""
        if name in offsets:
            # The offset sampled most, and for static code where that is in
            # the library: what to hand `objdump -d --start-address`.
            (off, in_lib), _ = offsets[name].most_common(1)[0]
            at = f"+{off:#x}"
            if off > STATIC_CODE_BYTES:
                at += f" [{name.split(':')[0]}+{in_lib:#x}]"
        print(f"{100 * n / total:6.1f} %  {n:6d}  {name}{at}")


if __name__ == "__main__":
    args = sys.argv[1:]
    sites_of = None
    if len(args) == 4 and args[2] == "--sites":
        sites_of = args.pop()
        args.pop()
    if len(args) != 2:
        sys.exit(__doc__)
    try:
        main(args[0], args[1], sites_of)
        sys.stdout.flush()
    except BrokenPipeError:
        # `| head`: the reader has what it wanted. Point stdout at nothing so
        # the interpreter's exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
