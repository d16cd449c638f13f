"""Fixture: arch-realrun-import violations (scoped as ``core/``)."""

import repro.realrun
import repro.realrun.emulator
from repro.realrun.energy import real_run_energy
from repro import realrun


def promoted_import_is_clean():
    from repro.core.profiles import APPLICATIONS as promoted

    return promoted


def suppressed_import():
    # repro: allow[arch-realrun-import] fixture: demonstrates suppression
    from repro.realrun.emulator import RealRunEmulator

    return RealRunEmulator
