"""Independent numpy model of a scenario document, and output checks.

The reference is built from the raw json document, never through qprob:
channel projectors come from an SVD of the spanning vectors, and tables
are einsums over the state reshaped to `dims + dims` against factor-local
projectors. A request's json output is compared with it within `TOL`.
"""

from __future__ import annotations

import hashlib
import json
import re
from string import ascii_letters

import numpy as np

TOL = 1e-9
# Text output prints the collapse probability with 6 significant digits.
PRINTED_REL_TOL = 6e-6
NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])", re.IGNORECASE)
_LETTERS = ascii_letters.replace("i", "").replace("j", "")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _complex(pairs) -> np.ndarray:
    arr = np.array(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def _projector(vectors: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(vectors.T, full_matrices=False)
    u = u[:, s > 1e-10]
    return u @ u.conj().T


class Reference:
    """Numbers the program must print for one quantum scenario document."""

    def __init__(self, doc: dict):
        self.events = None
        if doc.get("kind") == "classical":
            mass = dict(zip(doc["points"], doc["measure"]))
            self.events = {e["id"]: sum(mass[m] for m in e["members"]) for e in doc["events"]}
            return
        dims_by_id = {s["id"]: s["dim"] for s in doc["spaces"]}
        order = doc.get("composite", [doc["spaces"][0]["id"]])
        self.dims = tuple(dims_by_id[sid] for sid in order)
        self.dim = int(np.prod(self.dims))
        state = doc["state"]
        if state["kind"] == "diagonal":
            self.rho = np.diag(np.array(state["weights"], dtype=np.complex128))
        elif state["kind"] == "pure":
            v = _complex(state["vector"])
            self.rho = np.outer(v, v.conj())
        else:
            self.rho = _complex(state["matrix"])
        self.boxed = self.rho.reshape(self.dims + self.dims)
        self.observables = {}
        for item in doc["observables"]:
            projectors = np.array([_projector(_complex(ch["vectors"])) for ch in item["channels"]])
            labels = [ch["label"] for ch in item["channels"]]
            self.observables[item["id"]] = (order.index(item["space"]), projectors, labels)

    def first_on_factor(self, factor: int) -> str:
        return next(oid for oid, (f, _, _) in self.observables.items() if f == factor)

    def _subscripts(self):
        n = len(self.dims)
        return _LETTERS[:n], list(_LETTERS[n:2 * n])

    def gross(self, oid: str) -> np.ndarray:
        f, proj, _ = self.observables[oid]
        rows, cols = self._subscripts()
        for k in range(len(self.dims)):
            if k != f:
                cols[k] = rows[k]
        cols = "".join(cols)
        return np.einsum(f"{rows}{cols},i{cols[f]}{rows[f]}->i", self.boxed, proj).real

    def joint(self, row_id: str, col_id: str) -> np.ndarray:
        fr, pr, _ = self.observables[row_id]
        fc, pc, _ = self.observables[col_id]
        rows, cols = self._subscripts()
        for k in range(len(self.dims)):
            if k not in (fr, fc):
                cols[k] = rows[k]
        cols = "".join(cols)
        spec = f"{rows}{cols},i{cols[fr]}{rows[fr]},j{cols[fc]}{rows[fc]}->ij"
        return np.einsum(spec, self.boxed, pr, pc).real

    def lifted(self, oid: str, k: int) -> np.ndarray:
        f, proj, _ = self.observables[oid]
        before = int(np.prod(self.dims[:f]))
        after = int(np.prod(self.dims[f + 1:]))
        return np.kron(np.kron(np.eye(before), proj[k]), np.eye(after))

    def collapse(self, oid: str, k: int) -> tuple[float, np.ndarray]:
        lift = self.lifted(oid, k)
        sandwich = lift @ self.rho @ lift
        p = float(np.trace(sandwich).real)
        return p, sandwich / p

    def luder_diagonal(self, oid: str) -> np.ndarray:
        _, proj, _ = self.observables[oid]
        total = np.zeros(self.dim)
        for k in range(len(proj)):
            lift = self.lifted(oid, k)
            total += np.einsum("xy,yz,zx->x", lift, self.rho, lift).real
        return total


def _clamp(values) -> np.ndarray:
    return np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)


def _cells(table: dict) -> np.ndarray:
    return np.array(
        [[complex(*c) if isinstance(c, list) else complex(c) for c in row] for row in table["cells"]]
    )


def _table(doc: dict, caption: str) -> dict:
    for section in doc["sections"]:
        if section["caption"] == caption:
            return section
    raise AssertionError(f"no section {caption!r}")


def _close(name: str, got, want, tol: float = TOL) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise AssertionError(f"{name}: shape {got.shape}, reference {want.shape}")
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if err > tol:
        raise AssertionError(f"{name}: max abs deviation {err:.3e} from the reference exceeds {tol:.0e}")


def check_json(ref: Reference, command: str, params: dict, text: str) -> None:
    """Compare one command's json output with the reference. `params`
    holds the observable selections the request made (`on`, `obs`); luder
    and branches default to the first declared observable, as the CLI does."""
    doc = json.loads(text)
    if command == "gross" and ref.events is not None:
        table = _table(doc, "event probabilities")
        _close("event probabilities", _cells(table)[:, 0].real, _clamp(list(ref.events.values())))
    elif command == "gross":
        for oid in ref.observables:
            table = _table(doc, f"gross probabilities: observable '{oid}'")
            _close(f"gross {oid}", _cells(table)[:, 0].real, _clamp(ref.gross(oid)))
    elif command in ("joint", "conditional"):
        row_id, col_id = ref.first_on_factor(0), ref.first_on_factor(1)
        jm = ref.joint(row_id, col_id)
        if command == "joint":
            table = _table(doc, f"joint probabilities: rows '{row_id}', columns '{col_id}'")
            _close("joint", _cells(table).real, _clamp(jm))
        else:
            table = _table(doc, f"probabilities of '{col_id}' given channels of '{row_id}'")
            marg = jm.sum(axis=1)
            kept = marg > 1e-12
            _close("conditional", _cells(table).real, _clamp(jm[kept] / marg[kept, None]))
    elif command == "collapse":
        oid, label = params["on"].split(":", 1)
        k = ref.observables[oid][2].index(label)
        p, post = ref.collapse(oid, k)
        lines = _table(doc, "collapse")["lines"]
        printed = float(lines[1].split(": ", 1)[1])
        if abs(printed - p) > PRINTED_REL_TOL * abs(p):
            raise AssertionError(f"collapse probability {printed} differs from the reference {p:.12g}")
        _close("collapse operator", _cells(_table(doc, f"a-posteriori operator given '{params['on']}'")), post)
    elif command == "luder":
        oid = params.get("obs") or next(iter(ref.observables))
        table = _table(doc, f"channel probabilities under the decohered operator (observable '{oid}')")
        _close("luder probabilities", _cells(table)[:, 0].real, _clamp(ref.gross(oid)))
        ops = _cells(_table(doc, "decohered operator"))
        _close("luder diagonal", np.diagonal(ops).real, ref.luder_diagonal(oid))
    elif command == "branches":
        oid = params.get("obs") or next(iter(ref.observables))
        table = _table(doc, f"branch probabilities (observable '{oid}')")
        _close("branch probabilities", _cells(table)[:, 0].real, _clamp(ref.gross(oid)))


def check_output(text: str) -> None:
    """Checks that hold for every successful output, whatever the format."""
    hit = NON_FINITE.search(text)
    if hit:
        raise AssertionError(f"output contains a non-finite value {hit.group(0)!r}")
