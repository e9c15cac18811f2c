"""CSV output of column blocks, every value as ``"%.17g" % x`` writes it.

Values are formatted in numpy a span of rows at a time, with exactly the
bytes ``"%.17g" % x`` gives. A CSV of more than one span is split into
near-equal spans, the same number for each usable CPU, and formatted byte
for byte as one process would by the parent and one forked worker for every
other CPU. Each process writes its own spans into the output with
``os.write``, one process at a time in span order, through the file offset
they all share; the parent hands the turn along. A path that names an
existing regular file is overwritten in place, without first truncating it,
and cut at the end of the new CSV, or after the header when the write fails.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import stat
import sys

import numpy as np

from .kernels import usable_cpus

_CSV_CHUNK_ROWS = 2048


# CSV values are written as ``"%.17g" % x`` writes them, but a span at a time
# in numpy. A value with 1e-5 <= |x| <= 1e15 takes the vectorised path below,
# and every other value (zeros, NaN, infinities, subnormals, the rest) goes
# through ``%`` itself, one call for all such values of a block of rows.
# ``%.17g`` rounds x correctly to 17 significant digits, half to even, and
# prints them with the exponent X of the rounded value: fixed notation for
# -4 <= X < 17, trailing fraction zeros and a bare point dropped, and
# ``d.ddd...e-05`` for X = -5.
# The vectorised path gets those digits exactly: with e = floor(log10|x|)
# and k = 16 - e, the product |x| * 10**k (10**k is an exact double for
# k <= 22) is formed without error as hi + lo (Dekker, "A floating-point
# technique for extending the available precision", 1971); e moves by one
# where 1e16 <= hi + lo < 1e17 fails, and N = hi + rint(lo) is the
# round-half-even integer, because hi >= 2**53 is even. N never rounds up to
# 10**17: the largest double below each power of ten from 1e-4 to 1e15 is too
# far below it, so X = e.
#
# Each value becomes a 32-byte record of four little-endian words: the sign
# and a "0.", "0.0" ... "0.000" prefix, then the digits with the point after
# digit X, trailing zeros cut, an "e-05" suffix where due, and the column
# separator in the last byte. Unused bytes are NUL, or spaces after a value
# formatted by ``%``, and one pass of ``bytes.translate`` drops them.
_G17_MIN, _G17_MAX = 1e-5, 1e15
_G17_BLOCK = 8192
_ASCII_ZEROS = 0x3030303030303030
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


@functools.cache
def _g17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**k for k <= 22, its high 26-bit half, and the record layouts.

    Layout row ``(negative * 21 + X + 5) * 17 + K``, for X = -5..15 and K the
    index of the last nonzero of the 17 digits, holds the prefix word, then
    three masks that keep the digits before the point, three that keep the
    digits after it (the digits shifted up one byte), and three words of
    constant bytes: the point and the "e-05" suffix.
    """
    pow10 = np.array([10.0**k for k in range(23)])
    scaled = pow10 * _SPLITTER
    pow10_hi = scaled - (scaled - pow10)
    layouts = np.zeros((2, 21, 17, 10), dtype=np.uint64)
    for negative in (0, 1):
        for exp in range(-5, 16):
            prefix = "-" * negative + ("0." + "0" * (-exp - 1) if -4 <= exp < 0 else "")
            # The point follows digit `point`; fixed notation below 1 has it in the prefix.
            point = exp if exp >= 0 else 0 if exp == -5 else None
            for last in range(17):
                before, after, const = bytearray(24), bytearray(24), bytearray(24)
                if point is None:
                    before[: last + 1] = b"\xff" * (last + 1)
                else:
                    before[: point + 1] = b"\xff" * (point + 1)
                    if last > point:
                        const[point + 1] = ord(".")
                        after[point + 2 : last + 2] = b"\xff" * (last - point)
                if exp == -5:
                    const[18:22] = b"e-05"
                words = [prefix.encode().ljust(8, b"\0")]
                words += [bytes(b[w : w + 8]) for b in (before, after, const) for w in (0, 8, 16)]
                layouts[negative, exp + 5, last] = [int.from_bytes(w, "little") for w in words]
    return pow10, pow10_hi, layouts.reshape(-1, 10)


def _digits8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each ``v < 10**8``, one per byte, first digit lowest."""
    x = v // 10000
    x = x | ((v - x * 10000) << 32)
    y = ((x * 5243) >> 19) & 0x0000007F0000007F  # (x * 5243) >> 19 == x // 100 for x < 10**4
    x = y | ((x - y * 100) << 16)
    y = ((x * 103) >> 10) & 0x000F000F000F000F  # (x * 103) >> 10 == x // 10 for x < 100
    return y | ((x - y * 10) << 8)


def _nonzero_bytes(v: np.ndarray) -> np.ndarray:
    """Bit j set where byte j of v is nonzero, for bytes below 0x80."""
    high = ((v + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080) >> 7
    return (high * 0x0102040810204080) >> 56


def _g17_records(x: np.ndarray, mag: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """The 32-byte records of ``"%.17g" % v`` for each v in x, separators not set.

    ``mag`` is ``|x|`` and ``fast`` flags the values with 1e-5 <= |v| <= 1e15.
    """
    if fast.all():
        return _g17_fast_records(x, mag)
    rec = np.zeros((x.size, 4), dtype="<u8")
    wide = np.flatnonzero(fast)
    if wide.size:
        rec[wide] = _g17_fast_records(x[wide], mag[wide])
    slow = np.flatnonzero(~fast)
    text = ("%-31.17g" * slow.size) % tuple(x[slow].tolist())  # "%.17g", space-padded
    rec.view(np.uint8)[slow, :31] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 31)
    return rec


def _g17_fast_records(x: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """``_g17_records`` for 1e-5 <= |x| <= 1e15, given ``mag = |x|``."""
    pow10, pow10_hi, layouts = _g17_tables()
    scaled = mag * _SPLITTER
    mag_hi = scaled - (scaled - mag)
    mag_lo = mag - mag_hi
    k = 16 - np.floor(np.log10(mag)).astype(np.int64)

    def exact_product(k, mag, mag_hi, mag_lo):
        p, p_hi = pow10.take(k), pow10_hi.take(k)
        p_lo = p - p_hi
        hi = mag * p
        return hi, ((mag_hi * p_hi - hi) + mag_hi * p_lo + mag_lo * p_hi) + mag_lo * p_lo

    hi, lo = exact_product(k, mag, mag_hi, mag_lo)
    # hi strictly inside (1e16, 1e17) puts hi + lo inside too; log10 can be
    # one off only next to a power of ten, so the exact test is on few values.
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:
        h, l = hi[near], lo[near]
        k[near] += ((h < 1e16) | ((h == 1e16) & (l < 0))).view(np.int8)
        k[near] -= ((h > 1e17) | ((h == 1e17) & (l >= 0))).view(np.int8)
        hi[near], lo[near] = exact_product(k[near], mag[near], mag_hi[near], mag_lo[near])
    n = hi.astype(np.uint64) + np.rint(lo).astype(np.int64).view(np.uint64)
    head = n // 10**9
    tail = n // 10
    digits = [_digits8(head), _digits8(tail - head * 10**8), n - tail * 10]
    nonzero = _nonzero_bytes(digits[0]) | (_nonzero_bytes(digits[1]) << 8)
    nonzero |= (digits[2] != 0).astype(np.uint64) << 16
    last = np.frexp(nonzero.astype(float))[1] - 1  # index of the last nonzero digit
    row = (np.signbit(x) * 21 + 21 - k) * 17 + last  # 21 - k = X + 5
    layout = layouts.take(row, axis=0)
    d0, d1, d2 = digits[0] + _ASCII_ZEROS, digits[1] + _ASCII_ZEROS, digits[2] + ord("0")
    rec = np.empty((x.size, 4), dtype="<u8")  # little-endian whatever the machine
    rec[:, 0] = layout[:, 0]
    rec[:, 1] = (d0 & layout[:, 1]) | ((d0 << 8) & layout[:, 4]) | layout[:, 7]
    rec[:, 2] = (d1 & layout[:, 2]) | (((d1 << 8) | (d0 >> 56)) & layout[:, 5]) | layout[:, 8]
    rec[:, 3] = (d2 & layout[:, 3]) | (((d2 << 8) | (d1 >> 56)) & layout[:, 6]) | layout[:, 9]
    return rec


def _format_span(span: np.ndarray) -> bytes:
    """The rows of ``span`` as CSV text, every value as ``"%.17g"`` writes it."""
    separators = np.full(span.shape[1], ord(","), dtype=np.uint64)
    separators[-1] = ord("\n")
    # Blocks of about _G17_BLOCK values keep a pass's temporaries in cache.
    step = max(1, _G17_BLOCK // span.shape[1])
    parts = []
    for block in (span[i : i + step] for i in range(0, len(span), step)):
        values = block.ravel()
        mag = np.abs(values)
        fast = (mag >= _G17_MIN) & (mag <= _G17_MAX)
        rec = _g17_records(values, mag, fast).reshape(block.shape + (4,))
        rec[:, :, 3] |= separators << 56
        parts.append(rec.tobytes().translate(None, b"\0 "))
    return b"".join(parts)


def _csv_spans(n_rows: int) -> tuple[int, list[tuple[int, int]]]:
    """The number of processes to format ``n_rows`` rows, and ``(start, stop)`` of each span.

    Rows that fit one span of ``_CSV_CHUNK_ROWS`` take one process; more
    take every usable CPU. The spans are near-equal (their sizes differ by
    one row at most), at most ``_CSV_CHUNK_ROWS`` rows each, and as many as
    a multiple of the processes, so every process formats as many spans as
    every other.
    """
    count = max(1, -(-n_rows // _CSV_CHUNK_ROWS))
    processes = usable_cpus() if count > 1 else 1
    count = -(-count // processes) * processes
    edges = [n_rows * i // count for i in range(count + 1)]
    return processes, list(zip(edges[:-1], edges[1:]))


def _span_rows(blocks: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the column blocks side by side, as floats."""
    return np.column_stack([block[start:stop] for block in blocks]).astype(float, copy=False)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` at the file offset of ``fd``, which the forked processes share."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_in_turn(conn, fd: int, text: bytes) -> bool:
    """Wait for the turn, write ``text`` and hand the turn back; False if the write failed."""
    conn.recv()
    try:
        _write_all(fd, text)
    except OSError as exc:  # the parent raises it in its place
        conn.send(exc)
        return False
    conn.send(None)
    return True


def _format_worker(conn, parent_ends, fd: int, blocks: list[np.ndarray], spans: list[tuple[int, int]]) -> None:
    # Ctrl-C reaches the whole process group; the writer ends the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent's ends inherited at the fork: with them closed, a worker
    # waiting for its turn sees end of file once the parent is gone.
    for end in parent_ends:
        end.close()
    try:
        previous = None  # written once the next span is formatted, so the turn finds it ready
        for start, stop in spans:
            text = _format_span(_span_rows(blocks, start, stop))
            if previous is not None and not _write_in_turn(conn, fd, previous):
                return
            previous = text
        _write_in_turn(conn, fd, previous)
    except (EOFError, ConnectionError):  # the parent died without ending the workers
        pass


@contextlib.contextmanager
def _span_workers(processes: int, fd: int, blocks: list[np.ndarray], spans: list[tuple[int, int]]):
    """``processes - 1`` forked workers; the parent is the remaining process.

    Worker ``k`` (from 1) formats ``spans[k::processes]``, the parent
    ``spans[::processes]``. Yields one connection per worker. A worker
    formats its next span before it waits for the turn to write the last
    one; given the turn, it writes that span into ``fd`` and sends None, or
    the OSError of a failed write. On exit the workers are joined, after
    being terminated if the body raised. Fork hands each worker the column
    blocks and the open file, with its offset, without pickling them; the
    workers only stack and format floats and write bytes, so they take no
    lock that another thread of the parent may have held at the fork.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for k in range(1, processes):
            ours, theirs = ctx.Pipe()
            conns.append(ours)
            args = (theirs, list(conns), fd, blocks, spans[k::processes])
            proc = ctx.Process(target=_format_worker, args=args)
            proc.start()
            procs.append(proc)
            theirs.close()  # the worker holds the only other end, so its exit ends the pipe
        yield conns
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def _open_in_place(path: str, flags: int) -> int:
    """``os.open`` for ``open(path, "w")`` without ``O_TRUNC``, with the mode "w" gives."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut_on_error(fd: int, header_end: int, exc_type, exc, tb) -> None:
    """Cut a failed output after its header, so no byte of an older file is left."""
    if exc_type is not None:
        with contextlib.suppress(OSError):  # the write's own error is the one to report
            os.ftruncate(fd, header_end)


def write_csv(path: str | None, header_lines: list[str], columns: list[str], *blocks) -> None:
    """Write the rows of the column ``blocks`` under a header, to ``path`` or standard output.

    Each block is one column (1-D) or several (2-D) of the same rows; the
    rows of a span are put side by side only when that span is formatted,
    so the rows are never copied whole and never sit in memory as text.
    With more than ``_CSV_CHUNK_ROWS`` rows, ``_csv_spans`` splits them
    into near-equal spans, the same number for each usable CPU, and
    ``_span_workers`` forks a worker for every CPU but one; the parent
    formats the first span of every round itself. Every process writes its
    own spans with ``os.write`` through the file offset they share, in span
    order, the parent handing the turn along: files, files opened to
    append, pipes, FIFOs and devices alike. A stream with no descriptor (a
    replaced ``sys.stdout``) is written by the parent alone.

    A ``path`` that names an existing regular file is overwritten in place:
    opened without ``O_TRUNC``, so its pages are not freed before anything
    is formatted, and cut at the end of the new CSV. When the write raises,
    the file is cut after the header once the workers are gone, so no byte
    of the old file follows the new output. Standard output and a ``path``
    that is not a regular file are never cut.
    """
    blocks = [np.asarray(block) for block in blocks]
    processes, spans = _csv_spans(len(blocks[0]))
    with contextlib.ExitStack() as stack:
        if path is None:
            out = sys.stdout
        else:  # opened as "w" opens it, but not truncated: old pages are overwritten in place
            out = stack.enter_context(open(path, "w", opener=_open_in_place))
        out.write("".join(f"# {h}\n" for h in header_lines) + ",".join(columns) + "\n")
        try:
            fd = out.fileno()
        except (AttributeError, OSError, ValueError):  # a replaced sys.stdout, or a closed one
            fd = None
        if fd is None:  # no descriptor to share: the parent writes every span to the stream
            for start, stop in spans:
                out.write(_format_span(_span_rows(blocks, start, stop)).decode("ascii"))
            return
        out.flush()
        cut = path is not None and stat.S_ISREG(os.fstat(fd).st_mode)
        if cut:
            # Pushed before the workers start, so it runs once they are gone.
            stack.push(functools.partial(_cut_on_error, fd, os.lseek(fd, 0, os.SEEK_CUR)))
        conns = []
        if processes > 1:
            _g17_tables()  # built before the fork, so each worker inherits them
            conns = stack.enter_context(_span_workers(processes, fd, blocks, spans))

        def finish_round():
            # Worker 1 has the turn since the parent wrote its span, each later
            # worker once the one before is done; a failed write raises here.
            for k, conn in enumerate(conns, 1):
                error = conn.recv()
                if error is not None:
                    raise error
                if k < len(conns):
                    conns[k].send(None)

        for m, (start, stop) in enumerate(spans[::processes]):
            text = _format_span(_span_rows(blocks, start, stop))
            if m:
                finish_round()
            _write_all(fd, text)
            if conns:  # worker 1 writes while the parent formats its next span
                conns[0].send(None)
        finish_round()
        if cut:  # every span is written: cut what is left of an older, longer file
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
