"""File formats: JSON reports, CSV trajectories/tables, the [re, im] pair
form of complex scenario values, and the compact binary trajectory format.

All writers are deterministic (sorted keys, repr-roundtrip floats, no
timestamps), so re-running an identical scenario reproduces the data
files byte for byte.  A CSV body is one "%r,%r,..." % cells format per
CSV_BLOCK_ROWS rows, string cells quoted first: csv.writer's bytes.

Binary trajectory layout (little endian), for a single-particle stay
trajectory; the kind byte is always 1:
    magic   4 bytes  b"RDMT"
    version u16      1
    kind    u8       1
    n       u64      instant count
    n_sites u32      site count
    seed    u64      sampling seed
    dt      f64      instant duration
    payload          n * i32 site indices
"""

import json
import struct

import numpy as np

from .errors import ScenarioError
from .rdm import PairedStayTrajectory, StayTrajectory

_MAGIC = b"RDMT"
_VERSION = 1
CSV_BLOCK_ROWS = 1 << 10  # rows per % format of write_csv, bounding the text held


def pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.shape[-1] != 2:
        raise ScenarioError("complex payload must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv_field(v, lone=False) -> str:
    """A cell as csv.writer writes it: str (repr for floats, '' for None), quoted
    if it holds a comma, a quote, CR or LF, or is the empty only field of a row."""
    v = "" if v is None else str(v)
    quote = any(c in v for c in ',"\r\n') or (lone and not v)
    return '"' + v.replace('"', '""') + '"' if quote else v


def write_csv(path, columns: dict, header_comments=()):
    """Column-dict CSV with optional '# key=value' header block."""
    names = list(columns)
    lone = len(names) == 1
    cols = [np.asarray(columns[n]) for n in names]
    plain = [c.ndim == 1 and c.dtype.kind in "biuf" for c in cols]  # %r is csv's text
    cols = [c.tolist() if ok else [_csv_field(v, lone) for v in c.tolist()]
            for c, ok in zip(cols, plain)]
    row = ",".join("%r" if ok else "%s" for ok in plain) + "\r\n"
    n_rows = min(map(len, cols), default=0)
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(_csv_field(n, lone) for n in names) + "\r\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            n = min(CSV_BLOCK_ROWS, n_rows - lo)
            cells = [None] * (n * len(cols))
            for j, c in enumerate(cols):
                cells[j::len(cols)] = c[lo:lo + n]
            fh.write(row * n % tuple(cells))


def write_trajectory_csv(path, traj: StayTrajectory):
    write_csv(
        path,
        {"instant": np.arange(traj.instants), "site_index": traj.stays},
        header_comments=[f"n_sites={traj.n_sites} dt_instant={traj.dt_instant!r} "
                         f"seed={traj.seed}"],
    )


def write_paired_trajectory_csv(path, traj: PairedStayTrajectory):
    write_csv(
        path,
        {
            "instant": np.arange(traj.instants),
            "branch": traj.branches,
            "x1": traj.x1,
            "x2": traj.x2,
        },
        header_comments=[f"dt_instant=1.0 seed={traj.seed}"],
    )


def write_trajectory_binary(path, traj: StayTrajectory):
    """Compact binary run format of a single-particle stay trajectory."""
    header = struct.pack("<4sHBQIQd", _MAGIC, _VERSION, 1, traj.instants, traj.n_sites,
                         traj.seed % (1 << 64), float(traj.dt_instant))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(traj.stays.astype("<i4").tobytes())


def read_trajectory_binary(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    head_size = struct.calcsize("<4sHBQIQd")
    if len(raw) < head_size:
        raise ScenarioError(f"truncated trajectory file ({len(raw)} bytes)")
    magic, version, kind, n, n_sites, seed, dt = struct.unpack("<4sHBQIQd", raw[:head_size])
    if magic != _MAGIC:
        raise ScenarioError("not a trajectory file (bad magic)")
    if version != _VERSION:
        raise ScenarioError(f"unsupported trajectory format version {version}")
    if kind != 1:
        raise ScenarioError(f"unknown trajectory kind {kind}")
    body = raw[head_size:]
    if len(body) < 4 * n:
        raise ScenarioError(f"truncated trajectory file ({len(raw)} bytes for {n} instants)")
    stays = np.frombuffer(body, dtype="<i4", count=n).astype(np.int64)
    return StayTrajectory(stays, n_sites=n_sites, dt_instant=dt, seed=seed)
