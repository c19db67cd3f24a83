"""Outside-in tracing of fedprompt: spans around its public entry points.

Nothing inside the package is edited. `install()` replaces each traced
function with a timing wrapper in every fedprompt module that binds it
(`from .model import forward_with_prompts` makes one binding per importing
module), and traced methods on their classes. Each wrapper keeps a span
stack, so a span's self time is its duration minus the time of the spans
it directly encloses.

Spans split on whether a tape is active when they start, so the taped
forward of local SGD and the untaped forwards of the prototype pass and
evaluation are timed apart.
"""

import functools
import sys
import time
from collections import defaultdict


def patch_everywhere(fn, wrapper):
    """Rebind every module-level name in the package that refers to `fn`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("fedprompt"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


class Tracer:
    """Busy time, self time and call/sample counts per span name."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, samples=None):
        """Return `fn` wrapped in a span. `name` is a string or a callable
        computing the span name at call time; `samples(*args)` adds to the
        span's `_samples` count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name() if callable(name) else name
            self.counts[label + "_calls"] += 1
            if samples is not None:
                self.counts[label + "_samples"] += samples(*args, **kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self.busy[label] += elapsed
                self.self_time[label] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def install(self):
        """Wrap the entry points of data, model, tensor, prototypes,
        federation, evaluation and cli."""
        from fedprompt import cli, data, evaluation, federation, model, prototypes
        from fedprompt import tensor as te

        def taped(prefix):
            return lambda: prefix + (".taped" if te.active_tape() is not None
                                     else ".untaped")

        def everywhere(fn, name, samples=None):
            patch_everywhere(fn, self.wrap(fn, name, samples))

        everywhere(cli.load_config, "cli.config")
        everywhere(data.generate_synthetic, "data.generate")
        everywhere(data.partition_pathological, "data.partition")
        everywhere(data.partition_dirichlet, "data.partition")
        everywhere(model.init_backbone, "model.init_backbone")
        everywhere(model.forward_with_prompts, taped("model.forward"))
        everywhere(model._transformer_layer, taped("model.transformer_layer"))
        # the model's binding only: that is where the forward pass calls it
        model.soft_scores_op = self.wrap(model.soft_scores_op,
                                         taped("prototypes.scores"))
        everywhere(prototypes.add_laplace_noise, "prototypes.dp_noise")
        everywhere(federation.compute_client_prototypes, "federation.proto_pass",
                   samples=lambda client, *a, **k: len(client.train_y))
        everywhere(federation.warm_startup, "federation.warmup")
        everywhere(federation.local_train, "federation.local_train")
        everywhere(federation.fedavg_aggregate, "federation.aggregate")

        def test_samples(clients, *a, **k):
            return sum(int(c.test_y.size) for c in clients)

        evaluate = evaluation.evaluate_clients
        everywhere(evaluate, "evaluation.evaluate", samples=test_samples)
        # cmd_run's own evaluation after training, nested around the
        # evaluation span so it is counted in both
        cli.evaluate_clients = self.wrap(cli.evaluate_clients, "cli.final_eval")
        for writer in ("write_config_copy", "write_metrics_csv",
                       "write_prompts_csv", "write_prototypes_csv"):
            everywhere(getattr(cli, writer), "cli.write")

        for owner, attr, name in (
                (te.Tape, "backward", "tensor.backward"),
                (prototypes.PrototypeBank, "apply_period_update",
                 "prototypes.bank_update"),
                (evaluation.EvalReport, "write_csv", "cli.write")):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def layer_metrics(self) -> dict:
        """Per-layer metrics by benchmark name: `_s` busy seconds, counts."""
        busy, own, counts = self.busy, self.self_time, self.counts
        out = {
            "data.generate_s": busy["data.generate"],
            "data.partition_s": busy["data.partition"],
            "model.init_backbone_s": busy["model.init_backbone"],
            "cli.config_s": busy["cli.config"],
            "model.forward_self_s": (own["model.forward.taped"]
                                     + own["model.forward.untaped"]),
            "tensor.backward_s": busy["tensor.backward"],
            "tensor.backward_calls": counts["tensor.backward_calls"],
            "federation.proto_pass_s": busy["federation.proto_pass"],
            "federation.proto_pass_calls": counts["federation.proto_pass_calls"],
            "federation.proto_pass_samples":
                counts["federation.proto_pass_samples"],
            "prototypes.bank_update_s": busy["prototypes.bank_update"],
            "prototypes.bank_update_calls":
                counts["prototypes.bank_update_calls"],
            "prototypes.dp_noise_calls": counts["prototypes.dp_noise_calls"],
            "federation.warmup_s": busy["federation.warmup"],
            "federation.local_train_s": busy["federation.local_train"],
            "federation.local_train_calls":
                counts["federation.local_train_calls"],
            "federation.sgd_self_s": own["federation.local_train"],
            "federation.aggregate_s": busy["federation.aggregate"],
            "evaluation.evaluate_s": busy["evaluation.evaluate"],
            "evaluation.evaluate_calls": counts["evaluation.evaluate_calls"],
            "evaluation.evaluate_samples": counts["evaluation.evaluate_samples"],
            "cli.final_eval_s": busy["cli.final_eval"],
            "cli.write_s": busy["cli.write"],
        }
        for prefix in ("model.forward", "model.transformer_layer",
                       "prototypes.scores"):
            for mode in ("taped", "untaped"):
                out[f"{prefix}.{mode}_s"] = busy[f"{prefix}.{mode}"]
                out[f"{prefix}.{mode}_calls"] = counts[f"{prefix}.{mode}_calls"]
        return out
