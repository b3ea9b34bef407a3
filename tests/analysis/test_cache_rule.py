"""R010 — buffer-pool content events bump the frame version.  (The
note_* ordering half of decoded-node invalidation is flow rule R015;
its samples live in ``test_flow_rules.py``.)"""

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
    from repro.analysis.lint import all_rules
    assert any(r.rule_id == "R010" for r in all_rules())
