"""The run configuration's JSON form: it round-trips, and the README's
example document is the default config."""

import json
import re
from pathlib import Path

import pytest

from thermalquench.config import config_from_dict, default_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("refine", [False, True], ids=["default", "refined"])
def test_to_dict_round_trips_through_json(refine):
    config = default_config().refined() if refine else default_config()
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_readme_config_block_is_the_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    assert config_from_dict(json.loads(blocks[0])) == default_config()
