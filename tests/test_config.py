"""Every tolerance knob in ``stategeom.config`` must still be read somewhere."""

import re
from pathlib import Path

from stategeom import config


def test_every_config_constant_is_read_outside_config():
    package = Path(config.__file__).resolve().parent
    sources = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                        if path.name != "config.py")
    constants = [name for name in vars(config) if name.isupper()]
    assert constants
    unread = [name for name in constants if not re.search(rf"\b{name}\b", sources)]
    assert not unread, f"config constants read by no module: {unread}"
