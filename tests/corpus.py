"""Closed, terminating programs for the soundness suite.

Each stays within 4 classes, 3 reference fields, and 12 allocations, and
runs to completion without null dereferences so the concrete interpreter can
enumerate every reached state.
"""

NODE = "class Node { Node n; Node p; }\n"
CELL = "class Cell { Cell nxt; }\n"
TREE = "class Tree { Tree left; Tree right; Tree parent; }\n"

CORPUS: dict[str, str] = {}

CORPUS["dll_builder"] = (
    """
main {
  int i;
  Node tmp;
  Node x;
  i := 1;
  tmp := new Node;
  while (i < 10) {
    x := new Node;
    x.n := tmp;
    tmp.p := x;
    tmp := x;
    i := i + 1;
  }
}
"""
    + NODE
)

CORPUS["list_builder_walk"] = (
    """
main {
  int i;
  Cell head;
  Cell c;
  Cell w;
  head := null;
  i := 0;
  while (i < 5) {
    c := new Cell;
    c.nxt := head;
    head := c;
    i := i + 1;
  }
  w := head;
  i := 0;
  while (i < 3) {
    w := w.nxt;
    i := i + 1;
  }
}
"""
    + CELL
)

CORPUS["self_loop"] = (
    """
main {
  Node x;
  x := new Node;
  x.n := x;
}
"""
    + NODE
)

CORPUS["two_cycle"] = (
    """
main {
  Node a;
  Node b;
  a := new Node;
  b := new Node;
  a.n := b;
  b.p := a;
}
"""
    + NODE
)

CORPUS["alias_chain"] = (
    """
main {
  Cell a;
  Cell b;
  Cell c;
  a := new Cell;
  b := a;
  c := b;
  c.nxt := new Cell;
}
"""
    + CELL
)

CORPUS["conditional_shape"] = (
    """
main {
  int k;
  Node x;
  Node y;
  k := 3;
  x := new Node;
  y := new Node;
  if (k < 5) then x.n := y; else x.p := y;
  if (k > 1) then y.p := x;
}
"""
    + NODE
)

CORPUS["reversal"] = (
    """
main {
  int i;
  Cell head;
  Cell c;
  Cell prev;
  Cell cur;
  Cell nxt;
  head := null;
  i := 0;
  while (i < 4) {
    c := new Cell;
    c.nxt := head;
    head := c;
    i := i + 1;
  }
  prev := null;
  cur := head;
  while (cur != null) {
    nxt := cur.nxt;
    cur.nxt := prev;
    prev := cur;
    cur := nxt;
  }
  head := prev;
}
"""
    + CELL
)

CORPUS["factory_method"] = (
    """
class Maker {
  Cell fresh;
  Cell make(Cell seed) {
    Cell c;
    c := new Cell;
    c.nxt := seed;
    return c;
  }
}
class Cell { Cell nxt; }
main {
  Maker m;
  Cell a;
  Cell b;
  Cell none;
  m := new Maker;
  a := m.make(none);
  b := m.make(a);
}
"""
)

CORPUS["linking_method"] = (
    """
class Joiner {
  Node glue(Node a, Node b) {
    a.n := b;
    b.p := a;
    return a;
  }
}
class Node { Node n; Node p; }
main {
  Joiner j;
  Node x;
  Node y;
  Node z;
  j := new Joiner;
  x := new Node;
  y := new Node;
  z := j.glue(x, y);
}
"""
)

CORPUS["reader_method"] = (
    """
class Reader {
  Cell second(Cell c) {
    Cell t;
    t := c.nxt;
    return t;
  }
}
class Cell { Cell nxt; }
main {
  Reader r;
  Cell a;
  Cell b;
  Cell s;
  r := new Reader;
  a := new Cell;
  b := new Cell;
  a.nxt := b;
  s := r.second(a);
  s.nxt := a;
}
"""
)

CORPUS["recursive_build"] = (
    """
class Builder {
  Cell grow(Cell tail, int k) {
    Cell c;
    Cell rest;
    int k2;
    rest := tail;
    if (k > 0) then {
      c := new Cell;
      c.nxt := tail;
      k2 := k - 1;
      rest := this.grow(c, k2);
    }
    return rest;
  }
}
class Cell { Cell nxt; }
main {
  Builder b;
  Cell list;
  Cell seed;
  int n;
  b := new Builder;
  n := 4;
  list := b.grow(seed, n);
}
"""
)

CORPUS["null_writes"] = (
    """
main {
  Node a;
  Node b;
  a := new Node;
  b := new Node;
  a.n := b;
  b.p := a;
  a.n := null;
  b := null;
}
"""
    + NODE
)

CORPUS["diamond_sharing"] = (
    """
main {
  Cell top1;
  Cell top2;
  Cell mid;
  top1 := new Cell;
  top2 := new Cell;
  mid := new Cell;
  top1.nxt := mid;
  top2.nxt := mid;
  mid.nxt := new Cell;
}
"""
    + CELL
)

CORPUS["nested_loops"] = (
    """
main {
  int i;
  int j;
  Node row;
  Node x;
  i := 0;
  while (i < 2) {
    row := new Node;
    j := 0;
    while (j < 2) {
      x := new Node;
      x.n := row;
      row.p := x;
      row := x;
      j := j + 1;
    }
    i := i + 1;
  }
}
"""
    + NODE
)

CORPUS["swap_fields"] = (
    """
main {
  Node a;
  Node b;
  Node t;
  a := new Node;
  b := new Node;
  a.n := b;
  t := a.n;
  a.n := null;
  a.p := t;
  b.n := a;
}
"""
    + NODE
)

CORPUS["parent_tree_loop"] = (
    """
main {
  int i;
  Tree root;
  Tree child;
  root := new Tree;
  i := 0;
  while (i < 3) {
    child := new Tree;
    child.parent := root;
    root.left := child;
    root := child;
    i := i + 1;
  }
}
"""
    + TREE
)

CORPUS["ints_only"] = (
    """
main {
  int a;
  int b;
  a := 3;
  b := a * 4 + 1;
  while (b > 0) { b := b - 2; }
}
"""
    + CELL
)

CORPUS["call_chain"] = (
    """
class Outer {
  Inner mk() {
    Inner x;
    Inner y;
    x := new Inner;
    y := x.attach(x);
    return y;
  }
}
class Inner {
  Inner lnk;
  Inner attach(Inner other) {
    this.lnk := other;
    return this;
  }
}
main {
  Outer o;
  Inner r;
  o := new Outer;
  r := o.mk();
}
"""
)

CORPUS["break_then_relink"] = (
    """
main {
  Cell a;
  Cell b;
  Cell c;
  a := new Cell;
  b := new Cell;
  c := new Cell;
  a.nxt := b;
  b.nxt := c;
  b.nxt := null;
  c.nxt := a;
}
"""
    + CELL
)

CORPUS["traverse_cyclic_bounded"] = (
    """
main {
  int i;
  Node tmp;
  Node x;
  i := 1;
  tmp := new Node;
  while (i < 6) {
    x := new Node;
    x.n := tmp;
    tmp.p := x;
    tmp := x;
    i := i + 1;
  }
  i := 0;
  while (i < 4) {
    x := x.n;
    i := i + 1;
  }
}
"""
    + NODE
)

CORPUS["subclass_fields"] = (
    """
class Base { Base link; }
class Ext extends Base { Base extra; }
main {
  Base a;
  Ext e;
  a := new Base;
  e := new Ext;
  e.link := a;
  e.extra := e;
  a.link := e;
}
"""
)

CORPUS["int_and_ref_params"] = (
    """
class Mixer {
  Cell pad(Cell c, int k) {
    Cell t;
    t := new Cell;
    if (k > 0) then t.nxt := c;
    return t;
  }
}
class Cell { Cell nxt; }
main {
  Mixer m;
  Cell a;
  Cell b;
  int two;
  int zero;
  m := new Mixer;
  a := new Cell;
  two := 2;
  b := m.pad(a, two);
  a := m.pad(b, zero);
}
"""
)

CORPUS["aliased_call_args"] = (
    """
class Joiner {
  Node glue(Node a, Node b) {
    a.n := b;
    b.p := a;
    return a;
  }
}
class Node { Node n; Node p; }
main {
  Joiner j;
  Node x;
  Node r;
  j := new Joiner;
  x := new Node;
  r := j.glue(x, x);
}
"""
)

CORPUS["result_woven_back"] = (
    """
class Maker {
  Cell make(Cell seed) {
    Cell c;
    c := new Cell;
    c.nxt := seed;
    return c;
  }
}
class Cell { Cell nxt; }
main {
  Maker m;
  Cell a;
  Cell r;
  m := new Maker;
  a := new Cell;
  r := m.make(a);
  a.nxt := r;
}
"""
)

CORPUS["receiver_field_extraction"] = (
    """
class Box {
  Cell item;
  Cell get() {
    Cell t;
    t := this.item;
    return t;
  }
}
class Cell { Cell nxt; }
main {
  Box r;
  Cell b;
  Cell s;
  r := new Box;
  b := new Cell;
  r.item := b;
  s := r.get();
  s.nxt := b;
}
"""
)

CORPUS["double_entangling_calls"] = (
    """
class Joiner {
  Node glue(Node a, Node b) {
    a.n := b;
    return a;
  }
}
class Node { Node n; Node p; }
main {
  Joiner j;
  Node x;
  Node y;
  Node r1;
  Node r2;
  j := new Joiner;
  x := new Node;
  y := new Node;
  r1 := j.glue(x, y);
  r2 := j.glue(y, x);
}
"""
)

CORPUS["update_through_local_alias"] = (
    """
class M {
  K through(K p) {
    K q;
    q := p;
    q.f := q;
    return q;
  }
}
class K { K f; }
main {
  M m;
  K a;
  K r;
  m := new M;
  a := new K;
  r := m.through(a);
}
"""
)

CORPUS["calls_inside_arithmetic"] = (
    """
class Pok {
  int poke(K a, K b) {
    a.f := b;
    return 1;
  }
  K relay(K a, K b) {
    int t;
    t := this.poke(a, b) + this.poke(b, a);
    return a;
  }
}
class K { K f; }
main {
  Pok p;
  K x;
  K y;
  K r;
  p := new Pok;
  x := new K;
  y := new K;
  r := p.relay(x, y);
}
"""
)

CORPUS["overriding_dispatch"] = (
    """
class Shape {
  Shape peer;
  Shape twin(Shape s) {
    return s;
  }
}
class Ring extends Shape {
  Shape twin(Shape s) {
    this.peer := s;
    return this;
  }
}
main {
  Shape a;
  Shape b;
  Shape c;
  a := new Ring;
  b := new Shape;
  c := a.twin(b);
}
"""
)


# --------------------------------------------------------------------------
# generated shapes that scale a program, kept out of CORPUS


def many_arguments(m: int, depth: int = 2) -> str:
    """One method with m reference arguments and six call sites: each reads
    ``a_c.f_c`` into ``t`` under a null guard, writes ``t`` into a field of
    the next argument, and calls the method again with ``t`` and the other
    arguments rotated.  ``main`` links ``a_i.f_i := a_(i+1)`` and calls the
    method at recursion depth ``depth``."""
    fields = "".join(f"N f{c}; " for c in range(6))
    params = ", ".join(f"N a{i}" for i in range(m))
    sites = []
    for c in range(6):
        i, nxt = c % m, (c + 1) % m
        rotated = ", ".join(f"a{(i + j) % m}" for j in range(1, m))
        sites.append(
            f"      t := null;\n"
            f"      if (a{i} != null) then t := a{i}.f{c};\n"
            f"      if (a{nxt} != null) then a{nxt}.f{c} := t;\n"
            f"      r := this.go(t, {rotated}, e);\n"
        )
    decls = "".join(f"  N a{i};\n" for i in range(m))
    news = "".join(f"  a{i} := new N;\n" for i in range(m))
    links = "".join(f"  a{i}.f{i % 6} := a{i + 1};\n" for i in range(m - 1))
    args = ", ".join(f"a{i}" for i in range(m))
    return (
        f"class N {{\n  {fields}\n  N go({params}, int d) {{\n"
        "    N t;\n    N r;\n    int e;\n    r := a0;\n    e := d - 1;\n"
        "    if (d > 0) then {\n" + "".join(sites) + "    }\n    return r;\n  }\n}\n"
        f"main {{\n  N x;\n{decls}  int k;\n  x := new N;\n{news}{links}"
        f"  k := {depth};\n  a0 := x.go({args}, k);\n}}\n"
    )


def call_chain(k: int) -> str:
    """k methods, each ``m_i(a)`` returning ``this.m_(i+1)(a)``; the last
    returns its argument, and ``main`` calls the first."""
    methods = "".join(
        f"  C m{i}(C a) {{\n    C r;\n    r := this.m{i + 1}(a);\n    return r;\n  }}\n"
        for i in range(k - 1)
    )
    return (
        f"class C {{\n  C f;\n{methods}  C m{k - 1}(C a) {{\n    return a;\n  }}\n}}\n"
        "main {\n  C c;\n  C x;\n  c := new C;\n  x := c.m0(c);\n}\n"
    )


def parallel_edges(k: int) -> str:
    """``a`` points at ``b`` through k fields, then ``b.f := a`` closes a
    cycle over each of them."""
    fields = " ".join(f"N g{i};" for i in range(k))
    writes = " ".join(f"a.g{i} := b;" for i in range(k))
    return f"class N {{ N f; {fields} }}\nmain {{ N a; N b; a := new N; b := new N; {writes} b.f := a; }}\n"
