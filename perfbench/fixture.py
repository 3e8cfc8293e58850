"""Seeded generic-CSV block-trace fixture for the replay workloads.

The simulator only ever receives the finished file. Rows are
"lba,size,op,ts": lba a 4KB page index, size in bytes (1-8 pages),
op R or W, and ts an absolute 64-bit nanosecond timestamp. The trace
starts far above 2^31 ns, so a writer or parser that truncates to 32
bits shows at once (mawk's printf %d caps at 2^31-1). Everything comes
from a splitmix64 stream keyed by the seed, so one seed gives the same
CSV on any Python version and host; the gzip wrapper stores mtime 0
and no file name, so the compressed bytes repeat too for one zlib.
run.py and selftest.py use it as a library.
"""

import gzip

MASK64 = (1 << 64) - 1

# First timestamp: 2020-09-13 in Unix nanoseconds, about 2^60.5.
BASE_TS_NS = 1_600_000_000_000_000_000

# Inter-arrival gap per 4KB page of a row, drawn uniformly from these
# bounds. Sized below drive saturation: with 40-100 us per page the
# replay cells keep ctrl.max_waiting at 1 and write latency near the
# unloaded program time, where 2.5 us gaps queued every request for a
# 0.5 s mean latency.
GAP_MIN_NS = 40_000
GAP_MAX_NS = 100_000

READ_SHARE = 0.45
MAX_EXTENT_PAGES = 8

# LBA space in 4KB pages (1 GiB).
FOOTPRINT_PAGES = 262_144


def splitmix64(state):
    """One splitmix64 step: (next state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def rows(seed, count):
    """Yield (lba, size_bytes, op, ts_ns) for @p count rows.

    Writes fall on a hot eighth of the footprint, skewed by u**2;
    reads spread over all of it, so most of the drive holds static
    data and GC relocates little (a write set as large as the
    footprint drives these small-plane geometries into write
    amplification above 10, and the replay then measures GC, not the
    trace frontend). An odd multiplier scatters the hot set over the
    address space. Each row waits GAP_MIN_NS-GAP_MAX_NS per page after
    the last.
    """
    state = seed & MASK64
    ts = BASE_TS_NS
    span = FOOTPRINT_PAGES - MAX_EXTENT_PAGES
    hot_span = span // 8
    gap_range = GAP_MAX_NS - GAP_MIN_NS + 1
    read_cut = int(READ_SHARE * 0x10000)
    unit = 1.0 / (1 << 53)
    for _ in range(count):
        state, bits = splitmix64(state)
        state, draw = splitmix64(state)
        pages = 1 + (bits & 7)
        is_read = ((bits >> 3) & 0xFFFF) < read_cut
        ts += pages * (GAP_MIN_NS + (bits >> 20) % gap_range)
        u = (draw >> 11) * unit
        if is_read:
            lba = int(span * u)
        else:
            lba = (int(hot_span * u * u) * 0x9E3779B1) % span
        yield lba, pages * 4096, "R" if is_read else "W", ts


def render(seed, count):
    """The whole CSV as bytes."""
    lines = ["lba,size,op,ts"]
    lines.extend(f"{lba},{size},{op},{ts}"
                 for lba, size, op, ts in rows(seed, count))
    lines.append("")
    return "\n".join(lines).encode("ascii")


def write(path, seed, count):
    """Write the gzip-compressed fixture to @p path."""
    data = gzip.compress(render(seed, count),
                         compresslevel=6, mtime=0)
    with open(path, "wb") as out:
        out.write(data)

