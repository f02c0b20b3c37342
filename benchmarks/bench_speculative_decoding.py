"""Sec. VII — edge-cloud speculative decoding speedup.

"Speculative decoding accelerates autoregressive tasks ... the edge
handles low-latency predictions, while the cloud refines" — a small
draft model proposes blocks of tokens, the large target model verifies
them in one call.  The benchmark sweeps the draft block size k and
reports acceptance rate and wall-clock-dominant speedup (tokens per
target-model call), with output-distribution correctness guaranteed by
the residual-resampling rule.
"""

import numpy as np

from repro.federated import NGramLM, speculative_decode

from bench_utils import print_table, save_result

KS = (1, 2, 4, 8)


def _corpus(n=6000, vocab=12):
    rng = np.random.default_rng(0)
    tokens = [0]
    for _ in range(n - 1):
        if rng.random() < 0.8:
            tokens.append((tokens[-1] + 1) % vocab)
        else:
            tokens.append(int(rng.integers(vocab)))
    return tokens


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    tokens = _corpus()
    target = NGramLM(12, order=3).fit(tokens)
    draft = NGramLM(12, order=1).fit(tokens)
    results = {}
    for k in KS:
        stats = speculative_decode(target, draft, tokens[:3], 300, k=k,
                                   rng=np.random.default_rng(k))
        results[k] = {
            "acceptance_rate": stats.acceptance_rate,
            "tokens_per_target_call": stats.tokens_per_target_call,
            "speedup": stats.speedup_vs_autoregressive(),
        }
    return results


def test_speculative_decoding(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Edge-cloud speculative decoding — speedup vs draft block size k "
        "(baseline: 1 target call per token)",
        ["k", "Acceptance", "Tokens / target call", "Speedup"],
        [[k, f"{e['acceptance_rate']:.2f}",
          f"{e['tokens_per_target_call']:.2f}", f"{e['speedup']:.2f}x"]
         for k, e in result.items()])
    save_result("speculative_decoding", result)

    # k = 1 degenerates toward autoregressive; larger blocks amortize the
    # expensive model (until acceptance limits returns).
    assert result[4]["speedup"] > 1.5
    assert result[4]["speedup"] > result[1]["speedup"]
    for entry in result.values():
        assert 0.0 < entry["acceptance_rate"] <= 1.0
