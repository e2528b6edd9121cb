"""Fig. 9: the share of each part of one SCF iteration."""

import pytest

from repro.analysis.paper_data import FIG9


def _share(model, part: str, n_gpus: int) -> float:
    components = model.scf_component_times(n_gpus)
    return getattr(components, part) / components.per_scf_total


@pytest.fixture(scope="module")
def modelled(si1536):
    return {
        **{f"hpsi_share_{n}gpu": _share(si1536, "hpsi_total", n) for n in (36, 72, 144, 288, 768)},
        "others_share_growth_36_to_768gpu": _share(si1536, "others", 768) / _share(si1536, "others", 36),
    }


@pytest.mark.parametrize("row", list(FIG9))
def test_fig9(modelled, row, admitted):
    assert admitted(FIG9, modelled, row)
