from binorms.groups import FreeWord
from binorms.norms import free_cancellation_context
from binorms.pqm import brooks_qm, defect_estimate
from binorms.sampling import all_reduced_words

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)


def _defect_of_brooks_ab():
    ctx = free_cancellation_context(2)
    words = all_reduced_words(2, 3)
    return defect_estimate(brooks_qm(A * B, ctx), [(g, h) for g in words for h in words], seed=5)


def test_measurement_reproducibility():
    # re-running the same seeded sample reproduces the measured constants
    first = _defect_of_brooks_ab()
    second = _defect_of_brooks_ab()
    assert first == second
    assert first.witness is not None and first.seed == 5
