"""Formulation variants and their structural properties."""

from __future__ import annotations

import enum


class FormulationVariant(str, enum.Enum):
    """The four supported formulations.

    REF_H_PHI    detailed per-turn reference: edge field DoFs inside each
                 turn, nodal scalar potential in air and between turns, one
                 cut per turn, per-turn current constraints with voltage
                 multipliers.
    FCM_H_FULL   homogenized winding, edge DoFs everywhere (no scalar
                 potential, no cuts); needs a small spurious air resistivity.
    FCM_H_PHI    homogenized winding, edge DoFs in the coil, nodal potential
                 in air, one free cut; total current via weak voltage rows.
    FCM_T_OMEGA  homogenized winding, nodal potential everywhere plus a
                 current potential supported on winding rows and modal
                 winding-current carriers; scalar resistivity.
    """

    REF_H_PHI = "ref-h-phi"
    FCM_H_FULL = "fcm-h-full"
    FCM_H_PHI = "fcm-h-phi"
    FCM_T_OMEGA = "fcm-t-omega"

    @property
    def is_fcm(self) -> bool:
        """True for the homogenized (winding-level constraint) variants."""
        return self is not FormulationVariant.REF_H_PHI


def parse_variant(name: str) -> FormulationVariant:
    """Accept both enum values and a few forgiving aliases."""
    key = name.strip().lower().replace("_", "-")
    aliases = {
        "ref": FormulationVariant.REF_H_PHI,
        "reference": FormulationVariant.REF_H_PHI,
        "h-phi": FormulationVariant.FCM_H_PHI,
        "h-full": FormulationVariant.FCM_H_FULL,
        "t-omega": FormulationVariant.FCM_T_OMEGA,
    }
    if key in aliases:
        return aliases[key]
    try:
        return FormulationVariant(key)
    except ValueError:
        valid = ", ".join(v.value for v in FormulationVariant)
        raise ValueError(f"unknown variant {name!r}; expected one of: {valid}") from None
