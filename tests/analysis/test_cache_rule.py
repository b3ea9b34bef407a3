"""R010 — the two legs of decoded-node invalidation."""

import textwrap

from repro.analysis.lint import lint_paths
from repro.analysis.rules.cache import StaleCacheInvalidationRule


def run(tmp_path, source, filename):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], [StaleCacheInvalidationRule()])


def rule_ids(report):
    return [v.rule_id for v in report.violations]


# ---------------------------------------------------------------------------
# leg 1 — buffer-pool content events need version evidence
# ---------------------------------------------------------------------------

def test_r010_flags_dirty_mark_without_version_bump(tmp_path):
    report = run(tmp_path, """
        def mark_dirty(self, buf):
            buf.dirty = True
    """, "storage/buffer_pool.py")
    assert rule_ids(report) == ["R010"]
    assert "version" in report.violations[0].message


def test_r010_accepts_dirty_mark_with_version_store(tmp_path):
    report = run(tmp_path, """
        def mark_dirty(self, buf):
            buf.dirty = True
            buf.version = _next_version()
    """, "storage/buffer_pool.py")
    assert report.ok


def test_r010_flags_page_no_rebind_without_evidence(tmp_path):
    report = run(tmp_path, """
        def remap(self, buf, new_page):
            buf.page_no = new_page
    """, "storage/buffer_pool.py")
    assert rule_ids(report) == ["R010"]


def test_r010_accepts_rebind_via_fresh_buffer(tmp_path):
    report = run(tmp_path, """
        def fault(self, page_no, data):
            buf = Buffer(page_no, data)
            return buf
    """, "storage/buffer_pool.py")
    assert report.ok


def test_r010_accepts_clean_down_and_unbind(tmp_path):
    # sync-time clean-down (= False) and eviction unbind (= None) do not
    # change content and need no version evidence
    report = run(tmp_path, """
        def clean(self, buf):
            buf.dirty = False
            buf.page_no = None
    """, "storage/buffer_pool.py")
    assert report.ok


# ---------------------------------------------------------------------------
# leg 2 — note_* maintenance must follow the dirty-marking version bump
# ---------------------------------------------------------------------------

def test_r010_flags_note_before_dirty(tmp_path):
    report = run(tmp_path, """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)
            self._dirty(leaf.buffer)
    """, "core/tree.py")
    assert rule_ids(report) == ["R010"]
    assert "before" in report.violations[0].message


def test_r010_flags_note_without_any_dirty(tmp_path):
    report = run(tmp_path, """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)
    """, "core/tree.py")
    assert rule_ids(report) == ["R010"]
    assert "never marks" in report.violations[0].message


def test_r010_accepts_note_after_dirty(tmp_path):
    report = run(tmp_path, """
        def delete(self, leaf, slot, keys):
            leaf.view.delete_item(slot)
            self._dirty(leaf.buffer)
            self.fp.note_delete(leaf.buffer, slot, keys)
    """, "core/tree.py")
    assert report.ok


def test_r010_note_ordering_applies_under_storage_too(tmp_path):
    report = run(tmp_path, """
        def touch(self, buf, keys):
            self.fp.note_insert(buf, 0, b"k", keys)
    """, "storage/helper.py")
    assert rule_ids(report) == ["R010"]


def test_r010_note_ordering_ignores_other_packages(tmp_path):
    report = run(tmp_path, """
        def touch(self, buf, keys):
            self.fp.note_insert(buf, 0, b"k", keys)
    """, "bench/driver.py")
    assert report.ok


def test_r010_pragma_suppression(tmp_path):
    report = run(tmp_path, """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)  # lint: disable=R010
    """, "core/tree.py")
    assert report.ok


def test_r010_leaves_nodeview_mutators_alone(tmp_path):
    # NodeView is byte-level: it carries no decoded state to drop
    report = run(tmp_path, """
        class NodeView:
            def insert_item(self, index, blob):
                self.n_keys += 1
                self.write(index, blob)
    """, "core/nodeview.py")
    assert report.ok


def test_r010_registered_in_full_rule_set():
    from repro.analysis.rules import all_rules
    assert any(r.rule_id == "R010" for r in all_rules())
