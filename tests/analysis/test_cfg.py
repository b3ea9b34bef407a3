"""CFG builder edge cases — the shapes the flow engine leans on.

Each test lowers a small function and asserts directly against the edge
set (addressed by node label via :meth:`CFG.edge_labels`, the stable
form: duplicated ``finally`` statements share labels, so membership
checks see every instance's edges).
"""

import ast
import textwrap

from repro.analysis.flow import build_cfg
from repro.analysis.flow.cfg import MAX_NODES


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    fns = [node for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    fn = fns[0] if name is None else \
        next(f for f in fns if f.name == name)
    return build_cfg(fn)


def out_kinds(cfg, label):
    return {kind for src, kind, _ in cfg.edge_labels() if src == label}


# ---------------------------------------------------------------------------
# finally: per-continuation instances
# ---------------------------------------------------------------------------

def test_finally_with_reraise_in_handler():
    cfg = cfg_of("""
        def f(op, file, buf):
            try:
                op()
            except ValueError:
                file.log()
                raise
            finally:
                file.unpin(buf)
    """)
    edges = cfg.edge_labels()
    # the raising body statement dispatches to the handler table
    assert ("stmt:4", "exc", "dispatch:3") in edges
    assert ("dispatch:3", "next", "except:5") in edges
    # an unmatched exception (not ValueError) runs the finally's
    # exception-path instance, as does the handler's bare re-raise
    assert ("dispatch:3", "exc", "finally:3:exc") in edges
    assert ("stmt:7", "exc", "finally:3:exc") in edges
    assert ("finally:3:exc", "next", "stmt:9") in edges
    # the normal continuation gets its own instance of the same body
    assert ("stmt:4", "next", "finally:3:normal") in edges
    assert ("finally:3:normal", "next", "stmt:9") in edges
    # the shared-label finally body exits towards BOTH continuations
    assert ("stmt:9", "next", "raise") in edges
    assert ("stmt:9", "next", "exit") in edges


def test_return_inside_try_instantiates_return_finally():
    cfg = cfg_of("""
        def f(file, page):
            buf = file.pin(page)
            try:
                return file.read(buf)
            finally:
                file.unpin(buf)
    """)
    assert "finally:4:return" in cfg.labels()
    edges = cfg.edge_labels()
    assert ("stmt:5", "next", "finally:4:return") in edges
    assert ("finally:4:return", "next", "stmt:7") in edges
    assert ("stmt:7", "next", "exit") in edges
    # the return's value expression may raise -> exception instance too
    assert ("stmt:5", "exc", "finally:4:exc") in edges


def test_return_inside_except_unwinds_through_finally():
    cfg = cfg_of("""
        def g(op, file, buf):
            try:
                op()
            except ValueError:
                return None
            finally:
                file.unpin(buf)
    """)
    labels = cfg.labels()
    # three continuations actually occur: normal, exception, return
    assert {"finally:3:normal", "finally:3:exc",
            "finally:3:return"} <= labels
    edges = cfg.edge_labels()
    assert ("except:5", "next", "stmt:6") in edges
    assert ("stmt:6", "next", "finally:3:return") in edges
    assert ("finally:3:return", "next", "stmt:8") in edges
    assert ("stmt:8", "next", "exit") in edges


def test_return_inside_except_without_finally():
    cfg = cfg_of("""
        def f(op):
            try:
                return op()
            except ValueError:
                return None
    """)
    edges = cfg.edge_labels()
    assert ("stmt:4", "exc", "dispatch:3") in edges
    assert ("stmt:4", "next", "exit") in edges
    assert ("dispatch:3", "next", "except:5") in edges
    assert ("except:5", "next", "stmt:6") in edges
    assert ("stmt:6", "next", "exit") in edges
    # ValueError is not a catch-all: the miss keeps propagating
    assert ("dispatch:3", "exc", "raise") in edges


def test_break_and_continue_instantiate_their_own_finally():
    cfg = cfg_of("""
        def f(items, file, page):
            for item in items:
                buf = file.pin(page)
                try:
                    if item:
                        continue
                    break
                finally:
                    file.unpin(buf)
    """)
    labels = cfg.labels()
    assert {"finally:5:continue", "finally:5:break"} <= labels
    edges = cfg.edge_labels()
    # continue re-enters the loop AFTER its finally instance ran
    assert ("finally:5:continue", "next", "stmt:10") in edges
    assert ("stmt:10", "back", "loop:3") in edges
    # break leaves the loop after its own instance
    assert ("finally:5:break", "next", "stmt:10") in edges
    assert ("stmt:10", "next", "exit") in edges


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def test_while_else_runs_on_normal_exhaustion():
    cfg = cfg_of("""
        def f(items, log):
            while items:
                items.pop()
            else:
                log.flush()
            return None
    """)
    edges = cfg.edge_labels()
    assert ("loop:3", "true", "stmt:4") in edges
    assert ("stmt:4", "back", "loop:3") in edges
    # the else arm hangs off the loop's false edge, before the tail
    assert ("loop:3", "false", "stmt:6") in edges
    assert ("stmt:6", "next", "stmt:7") in edges
    assert ("stmt:7", "next", "exit") in edges


def test_while_true_has_no_false_edge():
    cfg = cfg_of("""
        def f(items):
            while True:
                if not items:
                    break
                items.pop()
    """)
    edges = cfg.edge_labels()
    assert "false" not in out_kinds(cfg, "loop:3")
    # the break is the only way out
    assert ("branch:4", "true", "stmt:5") in edges
    assert ("stmt:5", "next", "exit") in edges
    assert ("branch:4", "false", "stmt:6") in edges
    assert ("stmt:6", "back", "loop:3") in edges


def test_for_else_and_break_bypasses_else():
    cfg = cfg_of("""
        def f(items, log):
            for item in items:
                if item:
                    break
            else:
                log.flush()
    """)
    edges = cfg.edge_labels()
    # exhaustion runs the else; break jumps straight past it
    assert ("loop:3", "false", "stmt:7") in edges
    assert ("stmt:7", "next", "exit") in edges
    assert ("stmt:5", "next", "exit") in edges
    assert not any(src == "stmt:5" and dst == "stmt:7"
                   for src, _, dst in edges)


# ---------------------------------------------------------------------------
# with blocks
# ---------------------------------------------------------------------------

def test_nested_with_releases_inner_then_outer_on_exception():
    cfg = cfg_of("""
        def f(file, a, b, op):
            with file.pinned(a) as ba:
                with file.pinned(b) as bb:
                    op(ba, bb)
    """)
    edges = cfg.edge_labels()
    # entering the inner manager may raise while only the outer is live
    assert ("with-enter:4", "exc", "with-exit:3:exc") in edges
    # a body exception runs inner exit, then outer exit, then escapes
    assert ("stmt:5", "exc", "with-exit:4:exc") in edges
    assert ("with-exit:4:exc", "exc", "with-exit:3:exc") in edges
    assert ("with-exit:3:exc", "exc", "raise") in edges
    # the normal path runs both exits inside-out as well
    assert ("stmt:5", "next", "with-exit:4:normal") in edges
    assert ("with-exit:4:normal", "next", "with-exit:3:normal") in edges
    assert ("with-exit:3:normal", "next", "exit") in edges


def test_return_inside_with_runs_exit_first():
    cfg = cfg_of("""
        def f(file, a):
            with file.pinned(a) as buf:
                return buf.data[0]
    """)
    edges = cfg.edge_labels()
    assert ("stmt:4", "next", "with-exit:3:return") in edges
    assert ("with-exit:3:return", "next", "exit") in edges


# ---------------------------------------------------------------------------
# generators, no-return calls, calls that cannot fail
# ---------------------------------------------------------------------------

def test_yield_gets_an_exception_edge():
    # close()/throw() can inject GeneratorExit at the yield point; a
    # pin held across a yield therefore needs the finally
    cfg = cfg_of("""
        def gen(file, page):
            buf = file.pin(page)
            try:
                yield buf.data
            finally:
                file.unpin(buf)
    """)
    edges = cfg.edge_labels()
    assert ("stmt:5", "exc", "finally:4:exc") in edges
    assert ("stmt:5", "next", "finally:4:normal") in edges


def test_pytest_skip_never_falls_through():
    cfg = cfg_of("""
        def f(cond):
            if cond:
                pytest.skip("nope")
            return 1
    """)
    edges = cfg.edge_labels()
    assert ("stmt:4", "exc", "raise") in edges
    assert "next" not in out_kinds(cfg, "stmt:4")
    # the other arm still reaches the return
    assert ("branch:3", "false", "stmt:5") in edges


def test_sys_exit_is_noreturn_but_bare_exit_is_not():
    cfg = cfg_of("""
        def f():
            sys.exit(1)
    """)
    assert out_kinds(cfg, "stmt:3") == {"exc"}
    cfg = cfg_of("""
        def g(exit):
            exit(1)
            return 2
    """)
    assert ("stmt:3", "next", "stmt:4") in cfg.edge_labels()


def test_bare_release_calls_have_no_exception_edge():
    cfg = cfg_of("""
        def f(file, a, b):
            file.unpin(a)
            file.unpin(b)
    """)
    assert out_kinds(cfg, "stmt:3") == {"next"}
    assert out_kinds(cfg, "stmt:4") == {"next"}


def test_release_with_raising_argument_keeps_its_exc_edge():
    cfg = cfg_of("""
        def f(file, frames):
            file.unpin(frames.pop())
    """)
    assert "exc" in out_kinds(cfg, "stmt:3")


def test_dirty_marks_and_view_makers_have_no_exception_edge():
    cfg = cfg_of("""
        def f(self, file, buf):
            view = NodeView(buf.data, 512)
            node = node_of(buf)
            file.mark_dirty(buf)
            self._dirty(buf)
    """)
    for line in (3, 4, 5, 6):
        assert out_kinds(cfg, f"stmt:{line}") == {"next"}


def test_subscripts_and_other_calls_can_raise():
    cfg = cfg_of("""
        def f(file, buf, op):
            first = buf.data[0]
            op(first)
    """)
    assert ("stmt:3", "exc", "raise") in cfg.edge_labels()
    assert ("stmt:4", "exc", "raise") in cfg.edge_labels()


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

def test_raise_statement_targets_innermost_handler():
    cfg = cfg_of("""
        def f(log):
            try:
                raise ValueError("x")
            except ValueError:
                log.note()
    """)
    edges = cfg.edge_labels()
    assert ("stmt:4", "exc", "dispatch:3") in edges
    assert "next" not in out_kinds(cfg, "stmt:4")


def test_oversized_function_is_flagged_not_built():
    body = "\n".join(f"    x{i} = {i}" for i in range(MAX_NODES + 50))
    cfg = cfg_of(f"def f():\n{body}\n")
    assert cfg.too_big
