from datetime import date, timedelta
from pathlib import Path

import pytest

from pathminer.model import Event, EventLog
from pathminer.patient_csv import parse_patient_csv
from pathminer.petri import build_dejure
from pathminer.simulate import SimulationConfig, simulate
from pathminer.transform import transform_log

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def make_log(*traces, start=date(2023, 1, 1)) -> EventLog:
    """Build a log from plain activity tuples, one case per tuple."""
    events = []
    for index, activities in enumerate(traces):
        for offset, activity in enumerate(activities):
            events.append(
                Event(f"c{index:03d}", activity, start + timedelta(days=offset))
            )
    return EventLog(tuple(events))


@pytest.fixture(scope="session")
def table_csv_bytes() -> bytes:
    return (DATA_DIR / "patients_table.csv").read_bytes()


@pytest.fixture(scope="session")
def table_rows(table_csv_bytes):
    return parse_patient_csv(table_csv_bytes)


@pytest.fixture(scope="session")
def example_log(table_rows):
    return transform_log(table_rows)


@pytest.fixture(scope="session")
def dejure():
    return build_dejure()


@pytest.fixture(scope="session")
def cohort_2k() -> EventLog:
    """The log of the benchmark's registry-size cohort: 2000 simulated patients."""
    return transform_log(simulate(SimulationConfig(patients=2000, seed=101)))
