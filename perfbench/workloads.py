"""The benchmark's workloads: their inputs, the commands of one operation, and
the check of every operation's output.

Each workload writes its inputs into its own work directory; the program only
ever sees those files. One operation is one or more ``fapft`` commands run in
a child process, one at a time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fapft import Checkpoint, compute_angles, describe_arch, uniform_soup_checkpoints

from perfbench import inputs


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 24), b""):
            digest.update(block)
    return digest.hexdigest()


def loaded(tensors: dict, metadata: dict, path) -> Checkpoint:
    """The checkpoint the program reads from ``path``, built from the generated tensors.

    The writer is canonical, so the file's SHA-256 is the content hash; it is
    set from the file, which spares the oracle a second serialization of
    every input (the program under test still computes its own).
    """
    ckpt = Checkpoint(tensors, metadata)
    ckpt._hash = sha256_file(path)
    return ckpt


def _toy(depth):
    return describe_arch("toy_vit", depth=depth, model_dim=16, heads=2, ffn_dim=32, seq_len=4)


class Workload:
    """Inputs from a seed, the commands of operation ``op``, and its output check."""

    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, scale: str):
        self.work, self.seed = work, seed
        self.input_bytes = 0
        self.generated = None  # the last set-up's tensors, kept for ``prepare``

    def setup(self):
        """Generate and write the inputs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self):
        """Compute the expected outputs (untimed) from the last set-up's tensors."""

    def commands(self, op: int) -> list[tuple[str, list[str]]]:
        """(label, fapft arguments) for each command of operation ``op``."""
        raise NotImplementedError

    def check(self, op: int) -> str | None:
        """None when operation ``op`` produced the expected outputs, else why not."""
        raise NotImplementedError

    def rates(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Throughput from one operation's wall time: MB of input checkpoints per second."""
        return {"input_mb_s": (self.input_bytes / 1e6 / wall_s, "MB/s")}


class AnglesRef(Workload):
    name = "angles_ref"
    why = (
        "fapft angles on vit_b16- and swin_b-size pairs: loads read, validate, hash and "
        "angle accumulation; bypasses the trainer and checkpoint writes"
    )

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        if scale == "reference":
            self.pairs = [("vit_b16", describe_arch("vit_b16"), 1000),
                          ("swin_b", describe_arch("swin_b"), 1000)]
        else:
            self.pairs = [("toy_a", _toy(2), 10), ("toy_b", _toy(3), 10)]
        self.expected: dict[str, bytes] = {}

    @property
    def labels(self):
        return [label for label, _, _ in self.pairs]

    def _path(self, label, kind):
        return self.work / f"{label}.{kind}.ckpt"

    def setup(self):
        self.input_bytes, self.generated = 0, []
        for index, (label, arch, classes) in enumerate(self.pairs):
            pre, ft = inputs.angle_pair(self.seed, index, arch, classes)
            meta = inputs.arch_metadata(arch)
            self.input_bytes += inputs.write_raw_checkpoint(self._path(label, "pre"), pre, meta)
            self.input_bytes += inputs.write_raw_checkpoint(self._path(label, "ft"), ft, meta)
            self.generated.append((pre, ft))

    def prepare(self):
        pairs, self.generated = self.generated, None
        for (label, arch, _), (pre, ft) in zip(self.pairs, pairs):
            meta = inputs.arch_metadata(arch)
            report = compute_angles(
                loaded(pre, meta, self._path(label, "pre")),
                loaded(ft, meta, self._path(label, "ft")),
                arch,
            )
            self.expected[label] = report.to_json_text().encode()

    def _out(self, op, label):
        return self.work / f"op{op}.{label}.angles.json"

    def commands(self, op):
        return [
            (label, ["angles", "--pre", str(self._path(label, "pre")),
                     "--ft", str(self._path(label, "ft")), "--arch", arch.arch_id,
                     "--out", str(self._out(op, label))])
            for label, arch, _ in self.pairs
        ]

    def check(self, op):
        for label in self.labels:
            out = self._out(op, label)
            if not out.is_file():
                return f"{label}: no angle report"
            if out.read_bytes() != self.expected[label]:
                return f"{label}: angle report differs from the in-process oracle"
        return None


class SoupRef(Workload):
    name = "soup_ref"
    why = (
        "fapft soup of five vit_b16-size runs of a k=1..5 plan series: loads codec reads and "
        "writes, mean_stack and the frozen check; bypasses the trainer and angles"
    )

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        if scale == "reference":
            self.arch, self.classes = describe_arch("vit_b16"), 1000
        else:
            self.arch, self.classes = _toy(6), 10
        self.expected = ""

    def setup(self):
        self.generated = None  # freed before the next set is drawn
        self.input_bytes, self.generated = inputs.write_soup_inputs(
            self.work, self.seed, self.arch, self.classes
        )

    def prepare(self):
        members, self.generated = self.generated, None
        meta = inputs.arch_metadata(self.arch)
        ckpts = [loaded(m, meta, self.work / f"member_k{k}.ckpt")
                 for k, m in enumerate(members, start=1)]
        self.expected = uniform_soup_checkpoints(ckpts, [1.0] * len(ckpts)).content_hash

    def _out(self, op):
        return self.work / f"op{op}.soup.ckpt"

    def commands(self, op):
        return [(self.arch.arch_id, ["soup", "--recipe", str(self.work / "recipe.json"),
                          "--out", str(self._out(op)), "--classes", str(self.classes)])]

    def check(self, op):
        out = self._out(op)
        manifest = Path(f"{out}.manifest.json")
        if not out.is_file() or not manifest.is_file():
            return "no soup checkpoint or manifest"
        try:
            recorded = json.loads(manifest.read_text())["output_hash"]
            actual = sha256_file(out)
        finally:
            out.unlink()
            manifest.unlink()
        if actual != recorded:
            return "soup file hash differs from the manifest's output_hash"
        if actual != self.expected:
            return "soup file hash differs from the in-process uniform_soup_checkpoints oracle"
        return None


class PipelineToy(Workload):
    name = "pipeline_toy"
    why = (
        "fapft pipeline on acceptance criterion 8's config, pretraining included: loads "
        "train() over full, FAPFT and linear-probe plans; codec and angle work are negligible"
    )

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        if scale == "reference":
            self.config = inputs.pipeline_config()
        else:
            self.config = inputs.pipeline_config(samples_per_class=10, epochs=3)
        dims = {k: v for k, v in self.config["arch"].items() if k != "num_classes"}
        self.classes = self.config["arch"]["num_classes"]
        self.full_params = describe_arch("toy_vit", **dims).full_param_count(self.classes)
        self.reference: bytes | None = None

    @property
    def samples_per_op(self) -> int:
        """Samples through forward and backward: four runs of ``epochs`` passes."""
        data = self.config["dataset"]
        n_train = int(0.8 * data["num_classes"] * data["samples_per_class"])
        return 4 * self.config["schedule"]["epochs"] * n_train

    def setup(self):
        text = json.dumps(self.config, indent=2, sort_keys=True) + "\n"
        (self.work / "config.json").write_text(text)

    def commands(self, op):
        return [("pipeline", ["pipeline", "--config", str(self.work / "config.json"),
                              "--difficulty", "challenging", "--out", str(self.work / f"op{op}")])]

    def check(self, op):
        path = self.work / f"op{op}" / "pipeline.json"
        if not path.is_file():
            return "no pipeline.json"
        text = path.read_bytes()
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "pipeline.json differs from the first operation's"
        obj = json.loads(text)
        fapft_acc = obj["runs"]["fapft"]["final_val_accuracy"]
        probe_acc = obj["runs"]["linear_probe"]["final_val_accuracy"]
        if fapft_acc < probe_acc:
            return f"FAPFT accuracy {fapft_acc} below linear probe {probe_acc}"
        fapft_params = obj["plan"]["param_count_by_classes"][str(self.classes)]
        if not fapft_params < 0.5 * self.full_params:
            return f"FAPFT trains {fapft_params} of {self.full_params} parameters"
        return None

    def rates(self, wall_s):
        return {"train_samples_s": (self.samples_per_op / wall_s, "1/s")}


WORKLOADS = {w.name: w for w in (AnglesRef, SoupRef, PipelineToy)}
