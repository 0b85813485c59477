"""Element kinds supported by the laboratory."""

from __future__ import annotations

from enum import Enum


class ElementKind(Enum):
    """Linear simplex and tensor-product element types.

    T3/TET4 are straight-sided simplices parameterized by area/volume
    coordinates with the first coordinate eliminated; Q4/B8 are bi/trilinear
    tensor elements on [-1, 1]^dim with counter-clockwise (VTK) node order.
    """

    T3 = "T3"
    TET4 = "TET4"
    Q4 = "Q4"
    B8 = "B8"

    @property
    def dim(self) -> int:
        return {"T3": 2, "TET4": 3, "Q4": 2, "B8": 3}[self.value]

    @property
    def nodes_per_element(self) -> int:
        return {"T3": 3, "TET4": 4, "Q4": 4, "B8": 8}[self.value]

    @property
    def is_simplex(self) -> bool:
        return self in (ElementKind.T3, ElementKind.TET4)

    @property
    def vtk_cell_type(self) -> int:
        return {"T3": 5, "Q4": 9, "TET4": 10, "B8": 12}[self.value]


def kind_from_name(name: str) -> ElementKind:
    try:
        return ElementKind(name.upper())
    except ValueError:
        valid = ", ".join(k.value for k in ElementKind)
        raise ValueError(f"unknown element kind {name!r}; valid kinds: {valid}") from None
