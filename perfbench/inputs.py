"""Frozen input generators for the benchmark workloads.

The tables are generated here, from the workload seed, with nothing but the
standard library, so no change to the program under test can alter what is
measured.  The generators are trimmed copies of the flight-like and
ncvoter-like generators the repository ships (same draws, same planted
errors, only the columns the workloads use), so their planted order
compatibilities are known.

Every generated table has a content digest.  ``digests.json`` records the
digests of each workload's inputs for seeds 0..99; ``check_inputs`` compares
against it whenever the run's seed is recorded, and on every run also
regenerates a small canary table whose digest is fixed, which guards the
generator code path itself for any seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import env

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Fixed-seed, small-size tables whose digests are checked on every run.
CANARY_SEED = 7
CANARY_ROWS = 600


class InputDigestError(env.BenchError):
    """A generated input does not match its recorded digest."""


# -- error injection (planted exceptions with known rows) -----------------------


def _pick_rows(num_rows: int, rate: float, rng: random.Random) -> List[int]:
    count = min(int(round(rate * num_rows)), num_rows)
    if count == 0:
        return []
    return sorted(rng.sample(range(num_rows), count))


def _scaling_errors(values, rate, factor, seed):
    rng = random.Random(seed)
    rows = _pick_rows(len(values), rate, rng)
    out = list(values)
    for row in rows:
        out[row] = out[row] * factor
    return out, set(rows)


def _value_replacements(values, rate, pool, seed):
    rng = random.Random(seed)
    rows = _pick_rows(len(values), rate, rng)
    out = list(values)
    for row in rows:
        out[row] = rng.choice(list(pool))
    return out, set(rows)


def _pair_swaps(values, rate, seed):
    rng = random.Random(seed)
    rows = _pick_rows(len(values), rate, rng)
    rng.shuffle(rows)
    out = list(values)
    touched = set()
    for i in range(0, len(rows) - 1, 2):
        first, second = rows[i], rows[i + 1]
        out[first], out[second] = out[second], out[first]
        touched.update((first, second))
    return out, touched


def _zipf_choices(rng: random.Random, num_values: int, num_rows: int,
                  exponent: float = 1.2) -> List[int]:
    weights = [1.0 / (i + 1) ** exponent for i in range(num_values)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    choices = []
    for _ in range(num_rows):
        u = rng.random()
        lo, hi = 0, num_values - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        choices.append(lo)
    return choices


def _code_for(index: int, width: int = 3) -> str:
    letters = []
    value = index
    for _ in range(width):
        letters.append(chr(ord("A") + value % 26))
        value //= 26
    return "".join(reversed(letters))


# -- tables ------------------------------------------------------------------------


class Table:
    """Named columns of plain values plus the planted OCs ``(a, b)``."""

    def __init__(self, columns: Dict[str, List[object]],
                 planted: Sequence[Tuple[str, str]] = ()) -> None:
        self.columns = columns
        self.planted = list(planted)

    @property
    def names(self) -> List[str]:
        return list(self.columns)

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def rows(self, start: int = 0, stop=None) -> List[List[object]]:
        cols = [self.columns[name][start:stop] for name in self.columns]
        return [list(row) for row in zip(*cols)]

    def digest(self) -> str:
        payload = json.dumps(
            [[name, self.columns[name]] for name in self.columns],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def flight_like(num_rows: int, num_attributes: int, seed: int,
                error_rate: float = 0.08) -> Table:
    """Flight-records-like table with planted approximate OCs.

    Planted: ``originAirportId ~ iataCode`` (mis-mapped codes),
    ``distance ~ airTime`` (pair swaps) and, from 9 attributes on,
    ``arrivalDelay ~ lateAircraftDelay`` (scaled delays), each with about
    ``error_rate`` of the rows perturbed.
    """
    rng = random.Random(seed)
    num_airports = max(10, min(300, num_rows // 20 + 10))
    airline_idx = _zipf_choices(rng, 12, num_rows)
    origin_idx = _zipf_choices(rng, num_airports, num_rows)
    dest_idx = _zipf_choices(rng, num_airports, num_rows)
    flight_date = [20190101 + rng.randrange(0, 365) for _ in range(num_rows)]
    dep_time = [rng.randrange(0, 2400) for _ in range(num_rows)]
    distance = [50 + (abs(o - d) * 37 + rng.randrange(0, 25))
                for o, d in zip(origin_idx, dest_idx)]
    air_time_clean = [int(20 + dist * 0.12) for dist in distance]
    late_aircraft = [max(0, int(rng.gauss(15, 20))) for _ in range(num_rows)]
    arrival_clean = [int(delay * 1.5) for delay in late_aircraft]
    arrival, _ = _scaling_errors(arrival_clean, error_rate, 7.0, seed + 1)
    iata, _ = _value_replacements(
        [_code_for(idx) for idx in origin_idx], error_rate,
        [_code_for(i) for i in range(num_airports)], seed + 2,
    )
    air_time, _ = _pair_swaps(air_time_clean, error_rate, seed + 3)
    taxi_out = [rng.randrange(5, 45) for _ in range(num_rows)]
    columns: Dict[str, List[object]] = {
        "flightDate": flight_date,
        "airline": [_code_for(i, 2) for i in airline_idx],
        "originAirportId": [10000 + idx * 7 for idx in origin_idx],
        "iataCode": iata,
        "destAirportId": [10000 + idx * 7 for idx in dest_idx],
        "distance": distance,
        "airTime": air_time,
        "arrivalDelay": [int(v) for v in arrival],
        "lateAircraftDelay": late_aircraft,
        "depTime": dep_time,
        "carrierGroup": [idx // 4 for idx in airline_idx],
        "taxiOut": taxi_out,
        "elapsedTime": [a + t for a, t in zip(air_time_clean, taxi_out)],
    }
    if num_attributes > len(columns):
        raise ValueError(f"flight_like supports at most {len(columns)} attributes")
    selected = list(columns)[:num_attributes]
    planted = [(a, b) for a, b in (
        ("originAirportId", "iataCode"),
        ("distance", "airTime"),
        ("arrivalDelay", "lateAircraftDelay"),
    ) if a in selected and b in selected]
    return Table({name: columns[name] for name in selected}, planted)


def ncvoter_like(num_rows: int, seed: int, error_rate: float = 0.1) -> Table:
    """Voter-registration-like table, 10 attributes, with planted
    ``municipalityDesc ~ municipalityAbbrv``, ``countyId ~ zipCode`` and
    ``streetAddress ~ mailAddress`` approximate OCs."""
    rng = random.Random(seed)
    num_municipalities = max(20, min(500, num_rows // 50 + 20))
    county_idx = _zipf_choices(rng, 100, num_rows)
    municipality_idx = _zipf_choices(rng, num_municipalities, num_rows)
    birth_year = [1930 + rng.randrange(0, 75) for _ in range(num_rows)]
    zip_clean = [27000 + c * 5 + m % 5
                 for c, m in zip(county_idx, municipality_idx)]
    street_number = [rng.randrange(1, 9999) for _ in range(num_rows)]
    street = [f"{num:05d} MAIN ST {_code_for(c, 2)}"
              for num, c in zip(street_number, county_idx)]
    registration = list(range(100000, 100000 + num_rows))
    rng.shuffle(registration)
    abbrv, _ = _value_replacements(
        [_code_for(idx) for idx in municipality_idx], error_rate,
        [_code_for(i) for i in range(num_municipalities)], seed + 11,
    )
    zip_code, _ = _value_replacements(zip_clean, error_rate, zip_clean, seed + 12)
    mail, _ = _value_replacements(
        street, error_rate,
        [f"PO BOX {rng.randrange(1, 999):04d}" for _ in range(50)], seed + 13,
    )
    columns: Dict[str, List[object]] = {
        "countyId": county_idx,
        "countyDesc": [f"COUNTY_{_code_for(idx, 2)}" for idx in county_idx],
        "municipalityDesc": [f"CITY_{_code_for(idx)}" for idx in municipality_idx],
        "municipalityAbbrv": abbrv,
        "birthYear": birth_year,
        "age": [2020 - year for year in birth_year],
        "registrationNumber": registration,
        "streetAddress": street,
        "mailAddress": mail,
        "zipCode": zip_code,
    }
    planted = [("municipalityDesc", "municipalityAbbrv"),
               ("countyId", "zipCode"), ("streetAddress", "mailAddress")]
    return Table(columns, planted)


# -- workload inputs ---------------------------------------------------------------

#: Rows uploaded per serve-mixed dataset, rows per append, appends available.
SERVE_BASE_ROWS = 8000
SERVE_APPEND_ROWS = 40
SERVE_APPEND_BATCHES = 100


def workload_tables(workload: str, seed: int) -> Dict[str, Table]:
    """The tables a workload hands the program, keyed by role."""
    if workload == "discover-large":
        return {"table": flight_like(8000, 8, seed * 2 + 1)}
    if workload == "discover-wide":
        return {"table": flight_like(2000, 11, seed * 2 + 1)}
    if workload == "serve-mixed":
        rows = SERVE_BASE_ROWS + SERVE_APPEND_ROWS * SERVE_APPEND_BATCHES
        return {
            "voters": ncvoter_like(rows, seed * 2 + 1),
            "flights": flight_like(rows, 10, seed * 2 + 2),
        }
    raise ValueError(f"unknown workload {workload!r}")


def tables_digest(tables: Dict[str, Table]) -> str:
    combined = hashlib.sha256()
    for role in sorted(tables):
        combined.update(f"{role}:{tables[role].digest()};".encode("utf-8"))
    return combined.hexdigest()


def canary_digest() -> str:
    return tables_digest({
        "flight": flight_like(CANARY_ROWS, 13, CANARY_SEED),
        "voter": ncvoter_like(CANARY_ROWS, CANARY_SEED),
    })


def load_recorded() -> Dict[str, object]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_inputs(workload: str, seed: int, tables: Dict[str, Table]) -> bool:
    """Raise :class:`InputDigestError` on any mismatch; return whether the
    seed itself was among the recorded ones."""
    recorded = load_recorded()
    if canary_digest() != recorded["canary"]:
        raise InputDigestError("generator canary digest changed")
    expected = recorded["workloads"][workload].get(str(seed))
    if expected is None:
        return False
    if tables_digest(tables) != expected:
        raise InputDigestError(
            f"{workload} inputs for seed {seed} differ from the recorded digest"
        )
    return True


def record_digests(workloads: Sequence[str], seeds: Sequence[int]) -> None:
    """Regenerate ``digests.json`` (run only when the inputs change on
    purpose: ``python3 perfbench/inputs.py``)."""
    data = {
        "canary": canary_digest(),
        "workloads": {
            workload: {str(seed): tables_digest(workload_tables(workload, seed))
                       for seed in seeds}
            for workload in workloads
        },
    }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    record_digests(("discover-large", "discover-wide", "serve-mixed"), range(100))
