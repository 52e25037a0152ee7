"""Correctness checks on what the program hands back to the benchmark.

Every check is a pure function over plain data (numbers, tuples, strings)
and returns a list of messages, empty when the output is correct.  The
expected values are computed here, apart from the program: line rates and
fault schedules are parsed from the benchmark's own scenario YAML, never
read back from the program's ``ideal_fct`` or its fault objects, and no
check compares against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import hashlib
import re

_RATE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([GMK]?)bps\s*$", re.IGNORECASE)
_RATE_UNITS = {"g": 10**9, "m": 10**6, "k": 10**3, "": 1}
_TIME = re.compile(r"^(\d+(?:\.\d+)?)(ns|us|ms|s)$")
_TIME_UNITS = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}
_FAULT = re.compile(
    r"^(?P<kind>link_degrade|link_loss)@(?P<time>[0-9.]+[a-z]+):"
    r"(?P<target>[a-z0-9.-]+)(?:=(?P<value>[0-9.]+))?(?:~(?P<prob>[0-9.]+))?$"
)
_FAULT_CLASS = {"link_degrade": "LinkDegrade", "link_loss": "LinkLoss"}


def parse_rate_bps(text: str | int) -> int:
    """``'10Gbps'`` -> 10_000_000_000 (integers pass through)."""
    if isinstance(text, int):
        return text
    match = _RATE.match(str(text))
    if match is None:
        raise ValueError(f"not a rate: {text!r}")
    return round(float(match.group(1)) * _RATE_UNITS[match.group(2).lower()])


def parse_time_ns(text: str) -> int:
    """``'300us'`` -> 300_000."""
    match = _TIME.match(text.strip())
    if match is None:
        raise ValueError(f"not a duration: {text!r}")
    return round(float(match.group(1)) * _TIME_UNITS[match.group(2)])


def expected_fault_log(
    faults: list[str], end_time: int
) -> list[tuple[int, str, bool]]:
    """The (time, event class, restores) entries a run ending at
    ``end_time`` must log for the cell's ``faults`` strings."""
    expected = []
    for text in faults:
        match = _FAULT.match(text)
        if match is None:
            raise ValueError(f"benchmark fault grammar does not cover {text!r}")
        time = parse_time_ns(match["time"])
        if match["kind"] == "link_degrade":
            restores = float(match["value"]) >= 1.0
        else:
            restores = float(match["prob"]) == 0.0
        if time <= end_time:
            expected.append((time, _FAULT_CLASS[match["kind"]], restores))
    return sorted(expected)


def records_digest(records) -> str:
    """Digest of (flow_id, src, dst, size, start, fct) tuples."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr(tuple(record)).encode())
    return hasher.hexdigest()


def check_flows(
    label: str,
    records: list[tuple[int, int, int, int, int, int]],
    *,
    arrivals: int,
    completed: int,
    num_flows: int,
    host_rate_bps: int,
    ticks_per_second: int,
) -> list[str]:
    """Every configured flow arrived and completed, none beat line rate.

    ``records`` are (flow_id, src, dst, size, start, fct) tuples; a flow's
    FCT must be at least its size in bits over the host line rate.
    """
    errors = []
    if not arrivals == completed == num_flows == len(records):
        errors.append(
            f"{label}: {num_flows} flows configured, {arrivals} arrived, "
            f"{completed} completed, {len(records)} records"
        )
    for flow_id, _src, _dst, size, _start, fct in records:
        # fct [ticks] * rate [bit/s] >= size [bit] * ticks/s, in integers.
        if fct * host_rate_bps < size * 8 * ticks_per_second:
            errors.append(
                f"{label}: flow {flow_id} of {size} B finished in {fct} ticks, "
                f"faster than the {host_rate_bps} bit/s line rate allows"
            )
    return errors


def check_payload_delivered(
    label: str,
    records: list[tuple[int, int, int, int, int, int]],
    delivered: list[tuple[int, int]],
) -> list[str]:
    """Each finished flow's receiver took in exactly its size in payload,
    and the finished flows are the ones the records describe.

    ``delivered`` holds (size, payload) per finished flow, where payload
    is the in-order bytes its receiver acknowledged (headers, ACKs and
    duplicates excluded).  Records carry no usable flow id, so they are
    matched to flows by their sizes.
    """
    errors = [
        f"{label}: a flow of {size} B delivered {payload} B of payload"
        for size, payload in delivered
        if payload != size
    ]
    if sorted(size for size, _ in delivered) != sorted(r[3] for r in records):
        errors.append(f"{label}: the finished flows' sizes differ from the records'")
    return errors


def check_repeats(rounds: list[dict[str, str]]) -> list[str]:
    """A point that recurs across rounds reproduces its records digest.

    Each round maps a key naming a point's inputs to its records digest.
    """
    first: dict[str, str] = {}
    errors = []
    for index, digests in enumerate(rounds):
        for key, digest in digests.items():
            if first.setdefault(key, digest) != digest:
                errors.append(f"round {index}: repeating {key} changed its records")
    return errors


def check_incast(
    label: str,
    durations: list[int],
    *,
    repeats: int,
    request_bytes: int,
    client_rate_bps: int,
    ticks_per_second: int,
) -> list[str]:
    """Every request of every repeat completed, none beat the client link."""
    errors = []
    if len(durations) != repeats:
        errors.append(f"{label}: {len(durations)} of {repeats} requests completed")
    for index, duration in enumerate(durations):
        if duration * client_rate_bps < request_bytes * 8 * ticks_per_second:
            errors.append(
                f"{label}: request {index} took {duration} ticks, faster than "
                f"{request_bytes} B at {client_rate_bps} bit/s"
            )
    return errors


def check_stripes(
    label: str, stripes: list[list[int]], *, request_bytes: int, fan_in: int
) -> tuple[list[int], list[str]]:
    """(requests short by the known fault, errors for every other request).

    Each request must be ``fan_in`` stripes summing to ``request_bytes``.
    The one tolerated shortfall is IncastClient's known fault: it sends
    ``request_bytes // fan_in`` per server and drops the remainder, so the
    stripes sum to exactly ``request_bytes // fan_in * fan_in``.  Any other
    sum is an error.
    """
    truncated = request_bytes // fan_in * fan_in
    short, errors = [], []
    for index, sizes in enumerate(stripes):
        total = sum(sizes)
        if len(sizes) != fan_in:
            errors.append(f"{label}: request {index} has {len(sizes)} of {fan_in} stripes")
        elif total == truncated != request_bytes:
            short.append(index)
        elif total != request_bytes:
            errors.append(
                f"{label}: the stripes of request {index} sum to {total} B, "
                f"not {request_bytes} B"
            )
    return short, errors


def check_fault_log(
    label: str,
    logged: list[tuple[int, str, bool]],
    faults: list[str],
    end_time: int,
) -> list[str]:
    """The timeline logged exactly the cell's events before the run's end."""
    expected = expected_fault_log(faults, end_time)
    got = sorted(tuple(entry) for entry in logged)
    if got != expected:
        return [f"{label}: timeline fault log {got} != schedule {expected}"]
    return []


def check_restores_inside(label: str, faults: list[str], end_time: int) -> list[str]:
    """Every scheduled event, restores included, fires before the run ends."""
    last = max(parse_time_ns(_FAULT.match(text)["time"]) for text in faults)
    if last >= end_time:
        return [
            f"{label}: run ended at {end_time} ns, before the {last} ns event; "
            "the cell never restores"
        ]
    return []


def check_warm_pass(
    label: str,
    cold: dict[str, str],
    warm: dict[str, str],
    warm_from_cache: list[bool],
) -> list[str]:
    """The warm pass served every point from cache with identical records.

    ``cold`` and ``warm`` map a point key to its records digest.
    """
    errors = []
    if not all(warm_from_cache) or len(warm_from_cache) != len(cold):
        served = sum(warm_from_cache)
        errors.append(
            f"{label}: warm pass served {served} of {len(cold)} points from cache"
        )
    for key, digest in cold.items():
        if warm.get(key) != digest:
            errors.append(f"{label}: warm records of {key} differ from the cold pass")
    return errors


_SOURCE_CELL = re.compile(r"<td>(?:run|cache)</td></tr>")
_EXTERNAL = re.compile(
    r"""(?:\b(?:src|href|xlink:href|action|poster)\s*=\s*["']?\s*(?!#|data:)[^"'\s>]"""
    r"""|url\(\s*["']?\s*(?!#|data:)[^)"'\s]|@import|<link\b|<script\b[^>]*\bsrc)""",
    re.IGNORECASE,
)


def check_pages(cold_page: str, warm_page: str, cells: list[dict]) -> list[str]:
    """The warm page equals the cold one but for the run/cache column; the
    page is self-contained and has one section per fault cell."""
    errors = []
    if _SOURCE_CELL.sub("", cold_page) != _SOURCE_CELL.sub("", warm_page):
        errors.append("report: the warm page differs from the cold page")
    if "<td>cache</td></tr>" in cold_page or "<td>run</td></tr>" in warm_page:
        errors.append("report: the source column does not match the pass")
    for page, name in ((cold_page, "cold"), (warm_page, "warm")):
        match = _EXTERNAL.search(page)
        if match is not None:
            errors.append(f"report: {name} page references {match.group(0)!r}")
    headings = re.findall(r"<h2>Cell: ([^<]*)</h2>", cold_page)
    for cell in cells:
        name = f"{cell['tier']}-{cell['kind']} "
        if sum(heading.startswith(name) for heading in headings) != 1:
            errors.append(f"report: no single section for cell {name.strip()}")
    if len(headings) != len(cells):
        errors.append(f"report: {len(headings)} cell sections for {len(cells)} cells")
    return errors
