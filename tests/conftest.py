"""Have pytest rewrite the asserts of the tests' shared reference module,
as it does a test module's, so that they still fire under python -O."""

import pytest

pytest.register_assert_rewrite("reference_plan")
