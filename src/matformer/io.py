"""Crystal ingestion and artifact serialization.

Reads VASP-5 style POSCAR (species line, Direct or Cartesian, positive
scale, no selective dynamics), a lossless JSON form of crystals (JSON of
the wrong type raises ValueError naming the field), a CSV of targets and
flat key=value run configs.  Writes crystal JSON, graphs as JSON or text
(read from the edge columns; nothing reads them back), and CSV tables of
predictions and training logs.  All file writes go through a
write-temp-then-rename path so interrupted runs never leave torn artifacts.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .crystal import Crystal, cart_to_frac, cell_volume, crystal_from_frac
from .graphs import KINDS, CrystalGraph

ELEMENTS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)

SYMBOL_TO_Z = {sym: z for z, sym in enumerate(ELEMENTS, start=1)}


class ParseError(ValueError):
    """Input file error, annotated with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    crystal: Crystal
    target: float

    def __post_init__(self):
        if not np.isfinite(self.target):
            raise ValueError(f"record {self.id!r} has a non-finite target")


# --- POSCAR -------------------------------------------------------------------


def parse_poscar(text: str) -> Crystal:
    """Parse VASP-5 POSCAR content into a canonically wrapped crystal."""
    lines = text.splitlines()

    def get(idx: int) -> str:
        if idx >= len(lines):
            raise ParseError(len(lines), "unexpected end of file")
        return lines[idx]

    def floats(idx: int, count: int, scale: float = 1.0) -> list[float]:
        fields = get(idx).split()[:count]
        if len(fields) < count:
            raise ParseError(idx + 1, f"expected {count} numeric fields")
        try:
            values = [float(f) for f in fields]
        except ValueError as err:
            raise ParseError(idx + 1, f"non-numeric field: {err}") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(idx + 1, f"non-finite field in {' '.join(fields)}")
        values = [v * scale for v in values]  # the same bits as NumPy's product
        if not all(map(math.isfinite, values)):
            raise ParseError(idx + 1, f"{' '.join(fields)} times the scale factor {scale!r} overflows")
        return values

    (scale,) = floats(1, 1)
    if scale <= 0:
        raise ParseError(2, "scale factor must be positive (volume convention unsupported)")
    lattice = np.array([floats(2 + i, 3, scale) for i in range(3)])

    species_fields = get(5).split()
    if not species_fields or any(f[0].isdigit() for f in species_fields):
        raise ParseError(6, "species symbols line required (VASP-5 layout)")
    numbers = []
    for sym in species_fields:
        if sym not in SYMBOL_TO_Z:
            raise ParseError(6, f"unknown element symbol {sym!r}")
        numbers.append(SYMBOL_TO_Z[sym])

    count_fields = get(6).split()
    try:
        counts = [int(f) for f in count_fields]
    except ValueError:
        raise ParseError(7, "malformed species counts") from None
    if len(counts) != len(numbers) or any(c < 1 for c in counts):
        raise ParseError(7, "species counts do not match the symbols line")

    mode_line = get(7).strip()
    if not mode_line:
        raise ParseError(8, "coordinate mode keyword missing")
    mode = mode_line[0].lower()
    if mode == "s":
        raise ParseError(8, "selective dynamics is not supported")
    if mode == "d":
        cartesian = False
    elif mode in ("c", "k"):
        cartesian = True
    else:
        raise ParseError(8, f"unrecognized coordinate mode {mode_line!r}")

    n = sum(counts)
    coords = np.array([floats(8 + i, 3, scale if cartesian else 1.0) for i in range(n)])
    if not np.isfinite(cell_volume(lattice)):
        raise ParseError(3, "the lattice on lines 3-5 leaves the float range: its volume is not finite")
    try:  # every field is finite, but a huge or near-singular cell can still overflow
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            frac = cart_to_frac(coords, lattice) if cartesian else coords
            return crystal_from_frac(np.repeat(numbers, counts), frac, lattice)
    except FloatingPointError as err:
        raise ParseError(3, f"the lattice on lines 3-5 leaves the float range: {err}") from None


def read_poscar(path: str) -> Crystal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poscar(fh.read())


# --- crystal JSON ---------------------------------------------------------------


def crystal_to_dict(crystal: Crystal) -> dict:
    return {
        "atomic_numbers": crystal.atomic_numbers.tolist(),
        "positions": crystal.positions.tolist(),
        "lattice": crystal.lattice.tolist(),
    }


def crystal_from_dict(data: dict) -> Crystal:
    if not isinstance(data, dict):
        raise ValueError(f"crystal JSON must be an object, got {type(data).__name__}")
    arrays = {}
    for key, dtype in (("atomic_numbers", int), ("positions", float), ("lattice", float)):
        if key not in data:
            raise ValueError(f"crystal JSON missing field {key!r}")
        try:
            arrays[key] = np.asarray(data[key], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"crystal JSON field {key!r}: {err}") from None
    return Crystal(**arrays)


def write_crystal_json(crystal: Crystal) -> str:
    return json.dumps(crystal_to_dict(crystal), indent=1)


def parse_crystal_json(text: str) -> Crystal:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid crystal JSON: {err}") from None
    return crystal_from_dict(data)


def read_crystal(path: str) -> Crystal:
    """Dispatch on extension: .json or POSCAR-style text."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return parse_crystal_json(fh.read())
    return read_poscar(path)


# --- graph serialization --------------------------------------------------------


def _edge_rows(graph: CrystalGraph):
    """Per edge: (src, dst, distance, image list, kind name), read from the columns."""
    e = graph.edges
    return zip(e.src.tolist(), e.dst.tolist(), e.distance.tolist(), e.image.tolist(),
               map(KINDS.__getitem__, e.kind.tolist()))


def graph_to_dict(graph: CrystalGraph) -> dict:
    return {
        "meta": asdict(graph.meta),  # keys in GraphMeta field order; node_radii, a tuple, dumps as a list
        "nodes": [{"index": i, "atomic_number": int(z)} for i, z in enumerate(graph.node_atomic_numbers)],
        "edges": [
            {"src": src, "dst": dst, "distance": distance, "image": image, "kind": kind}
            for src, dst, distance, image, kind in _edge_rows(graph)
        ],
    }


def graph_to_json(graph: CrystalGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=1)


def graph_to_text(graph: CrystalGraph) -> str:
    """Line-oriented form: a node line per atom, an edge line per edge."""
    out = _stdio.StringIO()
    out.write(f"graph method={graph.meta.method} nodes={graph.n_nodes} edges={len(graph.edges)}\n")
    for i, z in enumerate(graph.node_atomic_numbers):
        out.write(f"node {i} {int(z)}\n")
    for src, dst, distance, (k1, k2, k3), kind in _edge_rows(graph):
        out.write(f"edge {src} {dst} {distance!r} {k1} {k2} {k3} {kind}\n")
    return out.getvalue()


# --- CSV tables -----------------------------------------------------------------


def parse_targets_csv(text: str) -> dict[str, float]:
    reader = csv.reader(_stdio.StringIO(text))
    try:
        return _targets_from_rows(reader)
    except csv.Error as err:  # a malformed or overlong field: no ValueError of its own
        raise ParseError(reader.line_num, str(err)) from None


def _targets_from_rows(reader) -> dict[str, float]:
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["id", "target"]:
        raise ValueError("targets CSV must start with header 'id,target'")
    out: dict[str, float] = {}
    for row in reader:
        lineno = reader.line_num  # the row's last line: a quoted field may span lines
        if not row:
            continue
        if len(row) < 2:
            raise ParseError(lineno, "expected 'id,target'")
        rid = row[0].strip()
        if rid in out:
            raise ParseError(lineno, f"duplicate id {rid!r}")
        try:
            out[rid] = float(row[1])
        except ValueError:
            raise ParseError(lineno, f"non-numeric target {row[1]!r}") from None
    return out


def write_predictions_csv(rows: list[tuple[str, float, float]]) -> str:
    out = _stdio.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "prediction", "target", "abs_err"])
    for rid, pred, target in rows:
        writer.writerow([rid, repr(float(pred)), repr(float(target)), repr(abs(float(pred) - float(target)))])
    return out.getvalue()


def write_training_log_csv(log: list[dict]) -> str:
    out = _stdio.StringIO()
    writer = csv.writer(out)
    writer.writerow(["epoch", "lr", "train_loss", "val_mae", "ewt_0.01", "ewt_0.02"])
    for row in log:
        writer.writerow(
            [
                row["epoch"],
                repr(row["lr"]),
                repr(row["train_loss"]),
                repr(row["val_mae"]),
                repr(row["ewt_0.01"]),
                repr(row["ewt_0.02"]),
            ]
        )
    return out.getvalue()


# --- run config -----------------------------------------------------------------


def parse_run_config(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment.  A key may appear once."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}, first set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


# --- atomic writes ----------------------------------------------------------------


# characters encoded per write: the encoder copies each slice, never the whole text
_WRITE_SLICE = 1 << 20


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for lo in range(0, len(text), _WRITE_SLICE):
                fh.write(text[lo : lo + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
