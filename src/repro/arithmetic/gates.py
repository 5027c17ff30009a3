"""Cell library: gate-equivalent costs, logic levels and netlist primitives.

The structural arithmetic models account for energy in *gate-equivalent
toggles*: every bit that flips in a given stage of the datapath contributes
the stage's gate-equivalent weight.  Delay is accounted in *logic levels*
(reference cell delays) so that the circuit-level delay model can translate a
path into nanoseconds at any supply voltage.

The module also provides a small combinational netlist framework whose cells
are evaluated in topological order with per-cell toggle counting -- a
bit-true, event-free gate-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return bin(value).count("1")


@dataclass(frozen=True)
class CellCost:
    """Area/energy and delay cost of one cell type.

    Attributes
    ----------
    gate_equivalents:
        Energy/area weight expressed in NAND2-equivalent gates; one toggle of
        this cell's output costs ``gate_equivalents`` reference toggles.
    logic_levels:
        Delay contribution in reference logic levels when the cell sits on
        the critical path.
    """

    gate_equivalents: float
    logic_levels: float


#: Cost table for the cells used by the arithmetic generators.  Values are
#: typical standard-cell figures (NAND2 = 1 GE); absolute calibration happens
#: against the paper's 16 b multiplier energy in :mod:`repro.core.scaling`.
CELL_COSTS: dict[str, CellCost] = {
    "inv": CellCost(gate_equivalents=0.5, logic_levels=0.5),
    "nand2": CellCost(gate_equivalents=1.0, logic_levels=1.0),
    "and2": CellCost(gate_equivalents=1.25, logic_levels=1.0),
    "or2": CellCost(gate_equivalents=1.25, logic_levels=1.0),
    "xor2": CellCost(gate_equivalents=2.0, logic_levels=1.2),
    "mux2": CellCost(gate_equivalents=2.0, logic_levels=1.0),
    "half_adder": CellCost(gate_equivalents=3.0, logic_levels=1.2),
    "full_adder": CellCost(gate_equivalents=4.5, logic_levels=2.0),
    "booth_encoder": CellCost(gate_equivalents=5.0, logic_levels=1.5),
    "booth_selector": CellCost(gate_equivalents=2.5, logic_levels=1.0),
    "register_bit": CellCost(gate_equivalents=4.0, logic_levels=0.5),
    "cla_stage": CellCost(gate_equivalents=6.0, logic_levels=1.4),
}


def cell_cost(name: str) -> CellCost:
    """Look up the cost entry of a cell type.

    Raises
    ------
    KeyError
        If the cell type is unknown.
    """
    try:
        return CELL_COSTS[name]
    except KeyError as exc:
        known = ", ".join(sorted(CELL_COSTS))
        raise KeyError(f"unknown cell type {name!r}; known: {known}") from exc


# ---------------------------------------------------------------------------
# Netlist framework
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    """One combinational cell instance in a :class:`Netlist`.

    Attributes
    ----------
    kind:
        Cell type; must be a key of :data:`CELL_COSTS`.
    inputs:
        Names of the nets driving the cell inputs.
    outputs:
        Names of the nets driven by the cell.
    """

    kind: str
    inputs: list[str]
    outputs: list[str]

    def evaluate(self, values: dict[str, int]) -> dict[str, int]:
        """Evaluate the cell function on current net ``values``."""
        bits = [values[name] for name in self.inputs]
        if self.kind == "inv":
            result = [1 - bits[0]]
        elif self.kind == "nand2":
            result = [1 - (bits[0] & bits[1])]
        elif self.kind == "and2":
            result = [bits[0] & bits[1]]
        elif self.kind == "or2":
            result = [bits[0] | bits[1]]
        elif self.kind == "xor2":
            result = [bits[0] ^ bits[1]]
        elif self.kind == "mux2":
            select, zero, one = bits
            result = [one if select else zero]
        elif self.kind == "half_adder":
            a, b = bits
            result = [a ^ b, a & b]
        elif self.kind == "full_adder":
            a, b, c = bits
            result = [a ^ b ^ c, (a & b) | (a & c) | (b & c)]
        else:
            raise ValueError(f"cell kind {self.kind!r} has no evaluate rule")
        return dict(zip(self.outputs, result))


@dataclass
class ToggleCounter:
    """Accumulates weighted output toggles of netlist cells."""

    weighted_toggles: float = 0.0
    raw_toggles: int = 0
    evaluations: int = 0

    def record(self, kind: str, toggles: int) -> None:
        """Record ``toggles`` output flips of a cell of type ``kind``."""
        if toggles < 0:
            raise ValueError("toggles must be non-negative")
        self.raw_toggles += toggles
        self.weighted_toggles += toggles * cell_cost(kind).gate_equivalents

    def reset(self) -> None:
        """Clear all accumulated counts."""
        self.weighted_toggles = 0.0
        self.raw_toggles = 0
        self.evaluations = 0


class Netlist:
    """A small combinational netlist with topological evaluation.

    Cells must be added in topological order (inputs before consumers); this
    is naturally satisfied by the structural generators in this package and
    keeps evaluation a single linear pass.
    """

    def __init__(self) -> None:
        self._cells: list[Cell] = []
        self._primary_inputs: list[str] = []
        self._primary_outputs: list[str] = []
        self._previous_values: dict[str, int] = {}
        self.toggle_counter = ToggleCounter()

    @property
    def cells(self) -> list[Cell]:
        """Cells in evaluation order."""
        return list(self._cells)

    @property
    def primary_inputs(self) -> list[str]:
        """Declared primary input nets."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> list[str]:
        """Declared primary output nets."""
        return list(self._primary_outputs)

    def add_input(self, name: str) -> str:
        """Declare a primary input net and return its name."""
        if name in self._primary_inputs:
            raise ValueError(f"duplicate primary input {name!r}")
        self._primary_inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        """Declare a primary output net and return its name."""
        if name in self._primary_outputs:
            raise ValueError(f"duplicate primary output {name!r}")
        self._primary_outputs.append(name)
        return name

    def add_cell(self, kind: str, inputs: list[str], outputs: list[str]) -> Cell:
        """Instantiate a cell; returns the created :class:`Cell`."""
        cell_cost(kind)  # validates the kind
        cell = Cell(kind=kind, inputs=list(inputs), outputs=list(outputs))
        self._cells.append(cell)
        return cell

    @property
    def gate_equivalents(self) -> float:
        """Total gate-equivalent count of the netlist (area proxy)."""
        return sum(cell_cost(cell.kind).gate_equivalents for cell in self._cells)

    def evaluate(self, input_values: dict[str, int], *, count_toggles: bool = True) -> dict[str, int]:
        """Evaluate the netlist for one input vector.

        Returns the values of the primary outputs.  When ``count_toggles`` is
        true, output flips relative to the previous evaluation are added to
        :attr:`toggle_counter`.
        """
        missing = [name for name in self._primary_inputs if name not in input_values]
        if missing:
            raise ValueError(f"missing values for primary inputs: {missing}")
        values: dict[str, int] = {
            name: int(bool(input_values[name])) for name in self._primary_inputs
        }
        for cell in self._cells:
            outputs = cell.evaluate(values)
            if count_toggles:
                toggles = sum(
                    1
                    for net, bit in outputs.items()
                    if self._previous_values.get(net, 0) != bit
                )
                self.toggle_counter.record(cell.kind, toggles)
            values.update(outputs)
        if count_toggles:
            self.toggle_counter.evaluations += 1
            self._previous_values = dict(values)
        return {name: values[name] for name in self._primary_outputs}

    def reset_state(self) -> None:
        """Forget the previous evaluation (toggle baseline) and counts."""
        self._previous_values = {}
        self.toggle_counter.reset()
