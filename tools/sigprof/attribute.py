#!/usr/bin/env python3
"""Attribute sigprof.so samples to cost categories.

    attribute.py <executable> <run.prof>

Every sample is classified by its inline chain (addr2line -i), walked from
the leaf outwards to the first frame that names a category or a file of this
repository: what the CPU was executing, not who asked for it. See README.md.
"""
import bisect
import collections
import re
import subprocess
import sys

# First match wins; tried on one frame's source path.
CATEGORIES = [
    ("mutex", ("futex.rs", "sync/poison", "sync/mutex", "pl-shim")),
    ("confined", ("simkit/src/confined.rs",)),
    ("Arc counts", ("alloc/src/sync.rs",)),
    ("hash", ("hashbrown", "/hash/", "collections/hash")),
    ("vec / heap", ("alloc/src/vec", "alloc/src/raw_vec", "binary_heap", "vec_deque")),
]
CRATE_FILE = re.compile(r"(?:crates|perfbench)/(?:([\w-]+)/)?src/([\w/]+\.rs)")


def classify(chain):
    """Category of an inline chain, leaf first.

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


def inline_chains(exe, addrs):
    """Source paths of the frames inlined at each file address, leaf first."""
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
            chain.append(line.rsplit(":", 1)[0])
    return chains


def nearest_symbol(lib):
    """addr -> name of the nearest dynamic symbol at or below it."""
    table = []
    for line in subprocess.run(["nm", "-D", "--defined-only", lib],
                               capture_output=True, text=True).stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            table.append((int(parts[0], 16), parts[2].split("@")[0]))
    table.sort()
    starts = [a for a, _ in table]
    return lambda a: table[i - 1][1] if (i := bisect.bisect_right(starts, a)) else "?"


def main(exe, prof):
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
    for s in samples:
        path = next((p for lo, hi, _, p in maps if lo <= s < hi), "[unmapped]")
        if path.rsplit("/", 1)[-1] == exe_name:
            in_exe.append(s - base[path])
        elif path.startswith("/") and path in base:
            sym = symbolisers.setdefault(path, nearest_symbol(path))
            rows[f"{path.rsplit('/', 1)[-1].split('.')[0]}: {sym(s - base[path])}"] += 1
        else:
            rows[path] += 1
    chains = inline_chains(exe, sorted(set(in_exe)))
    for a in in_exe:
        rows[classify(chains.get(a) or ["??"])] += 1
    total = len(samples)
    print(f"{total} samples, {prof}")
    for name, n in rows.most_common():
        print(f"{100 * n / total:6.1f} %  {n:6d}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
