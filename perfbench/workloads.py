"""The benchmark's workloads: seeded inputs, timed calls and their checks.

A workload runs as a closed loop with one client: the harness asks for a
cycle of requests, times each call into ``pcattack`` and checks its output
before it sends the next.  Inputs are generated from the seed outside the
timed calls, with numpy's own generator unless the workload exercises the
program's generator on purpose.  Every workload counts its work in units
(attacks, oracle calls, sweep cells, PCR ratios) so that per-unit latency
and per-layer times compare.

Each workload also names its ``calibration``: the shapes of a fixed set of
SVDs like its own work and their time at the reference speed, the median
on the two-core x86-64 host where the benchmark was defined (numpy 2.4,
OpenBLAS 0.3.31, one thread).  The reference time only sets the scale of
the reported times; see harness.py.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import pcattack
import pcattack.fileio
from pcattack.experiments import DEFAULT_ETA_RATIOS as SWEEP_RATIOS
from pcattack.pcr import DEFAULT_ETA_RATIOS as PCR_RATIOS

import checks


@dataclass(frozen=True)
class Call:
    """One timed call into the program and the check of its output.

    ``kind`` names the root span of the call; ``work`` is what the call
    adds to ``work_per_s`` (0 keeps it out of that rate).
    """

    kind: str
    units: int
    work: int
    fn: Callable[[], object]
    check: Callable[[object], list[str]]
    trials: int = 0


@dataclass(frozen=True)
class CliCall:
    argv: list[str]
    check: Callable[[str], list[str]]     # gets the command's stdout


Request = list[Call]


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _sub_seed(seed: int, *salt: int) -> int:
    return int(_rng(seed, *salt).integers(2**31))


def _singular_values(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False)


class AttackTall:
    """Closed-form attacks on freshly generated tall matrices, all 8 regimes.

    Each cycle attacks a gaussian matrix at k (k < rank), a rank-k matrix
    at k (k = rank) and a gaussian matrix at k = n (full column rank), at
    half and at 1.5 times the regime threshold, with each strategy that
    applies.  The CLI path attacks further matrices with ``--emit-delta``.
    """

    name = "attack-tall"
    aliases = {"attack_p50_ms": "op_p50_ms", "attack_tail_ms": "op_tail_ms",
               "attacks_per_s": "work_per_s", "cli_attack_s": "cli_s"}
    calibration = (((500, 125),), 0.020)
    CLI_INPUTS = 3
    CLI_CALLS = 9
    # (data, k is n?, strategy, budget / threshold, expected regime)
    OPS = (
        ("gaussian", False, "rank_one", 0.5, "KLtRankCase2"),
        ("gaussian", False, "rank_one", 1.5, "KLtRankCase1"),
        ("gaussian", False, "unconstrained", 0.5, "UnconstrainedCase2"),
        ("gaussian", False, "unconstrained", 1.5, "UnconstrainedCase1"),
        ("low_rank", False, "rank_one", 0.5, "LowRankCase2"),
        ("low_rank", False, "rank_one", 1.5, "LowRankCase1"),
        ("low_rank", False, "unconstrained", 0.5, "UnconstrainedCase2"),
        ("low_rank", False, "unconstrained", 1.5, "UnconstrainedCase1"),
        ("gaussian", True, "rank_one", 0.5, "FullRankCase2"),
        ("gaussian", True, "rank_one", 1.5, "FullRankCase1"),
    )

    def __init__(self, seed: int, work_dir: Path, toy: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.d, self.n, self.k = (40, 10, 3) if toy else (1000, 250, 10)
        self.cli_inputs: list[tuple[Path, float]] = []

    def _matrix(self, data: str, rng: np.random.Generator) -> np.ndarray:
        if data == "gaussian":
            return rng.standard_normal((self.d, self.n))
        return rng.standard_normal((self.d, self.k)) @ rng.standard_normal((self.k, self.n))

    @staticmethod
    def _threshold(sigma, k: int, low_rank: bool, strategy: str) -> float:
        sigma_k1 = 0.0 if low_rank or k == sigma.size else float(sigma[k])
        gap = float(sigma[k - 1]) - sigma_k1
        return gap if strategy == "rank_one" else gap / math.sqrt(2.0)

    def setup(self) -> None:
        self.cli_inputs = []
        for i in range(self.CLI_INPUTS):
            x = self._matrix("gaussian", _rng(self.seed, 1, i))
            sigma = _singular_values(x)
            eta = 0.5 * self._threshold(sigma, self.k, False, "unconstrained")
            path = self.work_dir / f"attack_{i}.csv"
            pcattack.fileio.write_matrix_csv(path, x)
            self.cli_inputs.append((path, eta))

    def cycle(self, index: int) -> Iterator[Request]:
        for j, (data, full, strategy, factor, regime) in enumerate(self.OPS):
            x = self._matrix(data, _rng(self.seed, 0, index, j))
            k = self.n if full else self.k
            eta = factor * self._threshold(_singular_values(x), k, data == "low_rank", strategy)
            attack = pcattack.attack_rank_one if strategy == "rank_one" else \
                pcattack.attack_unconstrained
            yield [Call(
                kind=f"{strategy}.attack_{strategy}", units=1, work=1,
                fn=lambda attack=attack, x=x, k=k, eta=eta: attack(x, k, eta),
                check=lambda out, regime=regime, eta=eta: checks.check_report(out[1], regime, eta))]

    def cli_calls(self) -> list[CliCall]:
        calls = []
        for i in range(self.CLI_CALLS):
            path, eta = self.cli_inputs[i % self.CLI_INPUTS]
            delta_path = self.work_dir / f"delta_{i}.csv"
            calls.append(CliCall(
                argv=["attack", str(path), "--k", str(self.k), "--eta", repr(eta),
                      "--strategy", "unconstrained", "--emit-delta", str(delta_path)],
                check=lambda out, eta=eta, delta_path=delta_path:
                    self._check_cli(out, eta, delta_path)))
        return calls

    def _check_cli(self, stdout: str, eta: float, delta_path: Path) -> list[str]:
        problems, report = checks.check_report_json(stdout, "UnconstrainedCase2", eta)
        if problems:
            return problems
        delta = pcattack.fileio.read_matrix_csv(delta_path)
        return checks.check_emitted_delta(delta, (self.d, self.n),
                                          report["delta_fro_norm"], eta)


class OracleSmall:
    """Random and grid-search oracles on small fresh instances.

    Each cycle runs ``random_rank_one``, ``random_unconstrained`` and
    ``grid_search_angles`` on a fresh 5x5 (k=3) and 20x30 (k=5) gaussian
    matrix at half the spectral gap, where k < rank.  Trial counts are fixed
    per size so that every random call takes about as long.
    """

    name = "oracle-small"
    aliases = {"oracle_call_p50_ms": "op_p50_ms", "oracle_call_tail_ms": "op_tail_ms",
               "oracle_trials_per_s": "work_per_s", "cli_verify_s": "cli_s"}
    calibration = (((512, 5, 5), (32, 20, 30)), 0.0075)
    CLI_CALLS = 9

    def __init__(self, seed: int, work_dir: Path, toy: bool):
        self.seed = seed
        self.work_dir = work_dir
        # (d, n, k, random-search trials)
        self.sizes = ((5, 5, 3, 64), (8, 10, 3, 16)) if toy else \
            ((5, 5, 3, 2048), (20, 30, 5, 256))
        self.cli_inputs: list[tuple[Path, float, int]] = []

    @staticmethod
    def _instance(d: int, n: int, k: int, rng: np.random.Generator):
        x = rng.standard_normal((d, n))
        sigma = _singular_values(x)
        return x, 0.5 * float(sigma[k - 1] - sigma[k])

    def setup(self) -> None:
        self.cli_inputs = []
        d, n, k, _ = self.sizes[0]
        for i in range(self.CLI_CALLS):
            x, eta = self._instance(d, n, k, _rng(self.seed, 1, i))
            path = self.work_dir / f"verify_{i}.csv"
            pcattack.fileio.write_matrix_csv(path, x)
            self.cli_inputs.append((path, eta, k))

    def cycle(self, index: int) -> Iterator[Request]:
        # One request holds all six calls: single calls differ in cost by 10x,
        # so a median over them would sit on the edge between two kinds.
        request = []
        for s, (d, n, k, trials) in enumerate(self.sizes):
            x, eta = self._instance(d, n, k, _rng(self.seed, 0, index, s))
            # The closed forms the oracles must not beat, checked themselves.
            _, r1 = pcattack.attack_rank_one(x, k, eta)
            _, wr = pcattack.attack_unconstrained(x, k, eta)
            problems = (checks.check_report(r1, "KLtRankCase2", eta)
                        + checks.check_report(wr, "UnconstrainedCase2", eta))
            cfg = pcattack.SearchConfig(trials=trials, seed=index)
            sigma_k, sigma_k1 = float(r1.sigma[k - 1]), float(r1.sigma[k])
            request.append(Call(
                kind="oracle.random_rank_one", units=1, work=trials, trials=trials,
                fn=lambda x=x, k=k, eta=eta, cfg=cfg: pcattack.random_rank_one(x, k, eta, cfg),
                check=lambda out, ref=r1.theta_predicted, problems=problems:
                    problems + checks.check_oracle(out[1], ref, checks.RANDOM_ORACLE_TOL)))
            request.append(Call(
                kind="oracle.random_unconstrained", units=1, work=trials, trials=trials,
                fn=lambda x=x, k=k, eta=eta, cfg=cfg:
                    pcattack.random_unconstrained(x, k, eta, cfg),
                check=lambda out, ref=wr.theta_predicted:
                    checks.check_oracle(out[1], ref, checks.RANDOM_ORACLE_TOL)))
            request.append(Call(
                kind="oracle.grid_search_angles", units=1, work=0,
                fn=lambda a=sigma_k, b=sigma_k1, eta=eta, cfg=cfg:
                    pcattack.grid_search_angles(a, b, eta, cfg),
                check=lambda out, ref=r1.theta_predicted:
                    checks.check_oracle(out[2], ref, checks.GRID_ORACLE_TOL)))
        yield request

    def cli_calls(self) -> list[CliCall]:
        # The default trial count, as users run it.  A k < rank instance gets
        # three checks: rank-one random and grid, unconstrained random.
        return [CliCall(argv=["verify", str(path), "--k", str(k), "--eta", repr(eta),
                              "--seed", str(i)],
                        check=lambda out: checks.check_verify_output(out, 3))
                for i, (path, eta, k) in enumerate(self.cli_inputs)]


class Sweep:
    """Closed-form budget sweeps, rank-one against unconstrained.

    One request sweeps a gaussian and a rank-k matrix (each generated by
    the program from a fresh seed) over the default ratio grid.  Every cell
    factors the same matrix again, which a factor-once change removes.
    """

    name = "sweep"
    aliases = {"sweep_cell_p50_ms": "op_p50_ms", "sweep_cells_per_s": "work_per_s",
               "cli_sweep_s": "cli_s"}
    calibration = (((200, 100),) * 16, 0.052)
    CLI_CALLS = 5

    def __init__(self, seed: int, work_dir: Path, toy: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.d, self.n, self.k = (20, 10, 3) if toy else (200, 100, 10)
        self.spec_path = work_dir / "sweep.spec"

    def _spec(self, kind: str, seed: int):
        return pcattack.SweepSpec(d=self.d, n=self.n, k=self.k, data_kind=kind,
                                  strategies=("r1-opt", "wr-opt"), seed=seed)

    def setup(self) -> None:
        self.spec_path.write_text(
            f"d = {self.d}\nn = {self.n}\nk = {self.k}\ndata_kind = gaussian\n"
            f"strategies = r1-opt,wr-opt\nseed = {_sub_seed(self.seed, 1)}\n",
            encoding="utf-8")

    def cycle(self, index: int) -> Iterator[Request]:
        request = []
        for j, kind in enumerate(("gaussian", "low_rank")):
            spec = self._spec(kind, _sub_seed(self.seed, 0, index, j))
            request.append(Call(
                kind="experiments.run_sweep", units=2 * len(SWEEP_RATIOS),
                work=2 * len(SWEEP_RATIOS),
                fn=lambda spec=spec: pcattack.run_sweep(spec),
                check=lambda rows: checks.check_sweep(
                    [(r.eta_ratio, r.strategy, r.theta, r.error) for r in rows],
                    len(SWEEP_RATIOS))))
        yield request

    def cli_calls(self) -> list[CliCall]:
        calls = []
        for i in range(self.CLI_CALLS):
            out = self.work_dir / f"sweep_{i}.csv"
            calls.append(CliCall(
                argv=["sweep", str(self.spec_path), "--out", str(out)],
                check=lambda _, out=out: checks.check_sweep_csv(
                    out.read_text(encoding="utf-8"), len(SWEEP_RATIOS))))
        return calls


class Pcr:
    """The PCR degradation study: attack, then refit, at every budget ratio.

    One request runs ``attack_pcr`` with both strategies on a collinear
    data set, over the default ratios, with a fresh train/test split.  PCR
    needs the dense perturbation, which sweeps do not.
    """

    name = "pcr"
    aliases = {"pcr_ratio_p50_ms": "op_p50_ms", "pcr_ratios_per_s": "work_per_s",
               "cli_pcr_s": "cli_s"}
    calibration = (((200, 320),) * 4, 0.044)
    DATASETS = 3
    CLI_CALLS = 9

    def __init__(self, seed: int, work_dir: Path, toy: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.d, self.n, self.k = (20, 40, 4) if toy else (200, 400, 8)
        self.csv_path = work_dir / "features.csv"
        self.datasets: list[tuple[np.ndarray, np.ndarray]] = []

    def setup(self) -> None:
        self.datasets = [pcattack.synthetic_collinear(
            seed=_sub_seed(self.seed, 0, i), d=self.d, n=self.n, n_factors=self.k)
            for i in range(self.DATASETS)]
        features, targets = self.datasets[0]
        rows = np.column_stack([features.T, targets])
        self.csv_path.write_text(
            "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n",
            encoding="utf-8")

    def cycle(self, index: int) -> Iterator[Request]:
        features, targets = self.datasets[index % self.DATASETS]
        yield [Call(
            kind="pcr.attack_pcr", units=len(PCR_RATIOS), work=len(PCR_RATIOS),
            fn=lambda strategy=strategy: pcattack.attack_pcr(
                features, targets, self.k, strategy=strategy, split_seed=index),
            check=lambda reports: checks.check_pcr(
                [(r.r2_train, r.r2_test) for r in reports], len(PCR_RATIOS)))
            for strategy in ("rank_one", "unconstrained")]

    def cli_calls(self) -> list[CliCall]:
        calls = []
        for i in range(self.CLI_CALLS):
            out = self.work_dir / f"pcr_{i}.csv"
            calls.append(CliCall(
                argv=["pcr", str(self.csv_path), "--k", str(self.k),
                      "--strategy", "unconstrained", "--seed", str(i), "--out", str(out)],
                check=lambda _, out=out: checks.check_pcr_csv(
                    out.read_text(encoding="utf-8"), len(PCR_RATIOS))))
        return calls


WORKLOADS = {w.name: w for w in (AttackTall, OracleSmall, Sweep, Pcr)}
