"""Treatment-path process mining toolkit.

Pipeline stages: patient CSV parsing, event-log transformation, process
discovery, alignment-based conformance checking, cohort statistics, decision
mining, and a seeded cohort simulator. See the CLI module for the command
surface.

The public names below are imported on first access (PEP 562), so that
importing the package, or running one command, loads only the stages used.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name, by the stage module that defines it.
_EXPORTS = {
    "conformance": ("Alignment", "ConformanceReport", "align", "conformance_report", "f1",
                    "fitness", "generalization", "precision", "simplicity"),
    "decision_mining": ("DecisionInstance", "Holdout", "distribution", "extract_instances",
                        "mine_place", "train_classifier"),
    "discovery": ("build_dfg", "build_footprint", "mine_alpha", "mine_dfm"),
    "model": ("Event", "EventLog", "Outcome", "PatientDatum", "PatientSequence", "Phenotype",
              "build_sequences", "classify_phenotype"),
    "net_io": ("read_net_json", "write_dot", "write_net_json"),
    "patient_csv": ("parse_patient_csv", "write_patient_csv"),
    "petri": ("Marking", "PetriNet", "build_dejure", "decision_points"),
    "simulate": ("SimulationConfig", "load_config", "simulate"),
    "stats": ("compare_cohorts", "count_c", "count_l", "dunn_bonferroni", "kruskal_wallis"),
    "transform": ("split_sequence", "trans_post", "trans_pre", "transform_log"),
    "xes": ("read_xes", "write_xes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return __all__


class _Package(ModuleType):
    # Importing the submodule ``simulate`` sets the package attribute of that
    # name; it stays the public function, as it was with eager imports.
    def __setattr__(self, name, value):
        if name not in _MODULE_OF or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
