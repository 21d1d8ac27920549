import json
from pathlib import Path

import numpy as np
import pytest

import tailward
from tailward import make_model


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def weibull12():
    return make_model("weibull(1,2)")


@pytest.fixture
def edge01():
    return make_model("edge(0,1)")


@pytest.fixture
def edge21():
    return make_model("edge(2,1)")


@pytest.fixture
def pareto12():
    return make_model("pareto(1,2)")


@pytest.fixture
def lognormal01():
    return make_model("lognormal(0,1)")


@pytest.fixture(scope="session")
def validate():
    """validate(payload, name) checks payload against schemas/<name>.schema.json."""
    import jsonschema

    base = Path(tailward.__file__).parent / "schemas"
    schemas = {f.name.split(".")[0]: json.loads(f.read_text())
               for f in base.glob("*.schema.json")}

    def check(payload, name):
        jsonschema.validate(payload, schemas[name])

    return check
