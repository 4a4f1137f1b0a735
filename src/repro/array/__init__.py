"""Array organization: subarrays, mats, H-trees, banks, main-memory chips."""

from repro._lazy import lazy_exports

#: Where each public name is defined; it is imported on first access.
_EXPORTS = {
    "ArrayMetrics": "repro.array.organization",
    "ArraySpec": "repro.array.organization",
    "EvalCache": "repro.array.organization",
    "HTree": "repro.array.htree",
    "InfeasibleOrganization": "repro.array.organization",
    "InfeasibleSubarray": "repro.array.subarray",
    "OrgGeometry": "repro.array.organization",
    "MainMemoryEnergies": "repro.array.mainmem",
    "MainMemorySpec": "repro.array.mainmem",
    "MainMemoryTiming": "repro.array.mainmem",
    "Mat": "repro.array.mat",
    "OrgParams": "repro.array.organization",
    "StackedBank": "repro.array.stacking",
    "Subarray": "repro.array.subarray",
    "build_organization": "repro.array.organization",
    "derive_energies": "repro.array.mainmem",
    "derive_geometry": "repro.array.organization",
    "derive_timing": "repro.array.mainmem",
    "design_htree": "repro.array.htree",
    "enumerate_orgs": "repro.array.organization",
    "mats_in_bank": "repro.array.mat",
    "prefilter_org": "repro.array.organization",
    "stacking_sweep": "repro.array.stacking",
}

__all__ = [
    "ArrayMetrics",
    "ArraySpec",
    "EvalCache",
    "HTree",
    "InfeasibleOrganization",
    "InfeasibleSubarray",
    "OrgGeometry",
    "MainMemoryEnergies",
    "MainMemorySpec",
    "MainMemoryTiming",
    "Mat",
    "OrgParams",
    "StackedBank",
    "Subarray",
    "build_organization",
    "derive_energies",
    "derive_geometry",
    "derive_timing",
    "design_htree",
    "enumerate_orgs",
    "mats_in_bank",
    "prefilter_org",
    "stacking_sweep",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
