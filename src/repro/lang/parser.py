"""Recursive-descent parser for the kernel language.

Grammar (C subset per Section 5 of the paper, extended with ``vec3``):

    program     := function*
    function    := type ident '(' params? ')' block
    params      := type ident (',' type ident)*
    block       := '{' stmt* '}'
    stmt        := block | decl | assign | if | while | for | return
                 | exprstmt
    decl        := type ident ('=' expr)? ';'
    assign      := ident ('=' | '+=' | '-=' | '*=' | '/=') expr ';'
    if          := 'if' '(' expr ')' stmt ('else' stmt)?
    while       := 'while' '(' expr ')' stmt
    for         := 'for' '(' simple? ';' expr? ';' simple? ')' stmt
    return      := 'return' expr ';'
    exprstmt    := call ';'
    expr        := ternary with precedence-climbing binary operators
    primary     := literal | ident | call | '(' expr ')' | unary
    postfix     := primary ('.' field)*

``for`` loops are desugared into a block containing the initializer and an
equivalent ``while``; compound assignments desugar to plain assignments.
The specializer therefore only ever sees the structured core.
"""

from __future__ import annotations

from . import ast_nodes as A
from .errors import ParseError
from .lexer import tokenize
from .ops import PRECEDENCE
from .types import INT, FLOAT, MAT3, VEC3, VOID

_TYPE_NAMES = {
    "int": INT,
    "float": FLOAT,
    "vec3": VEC3,
    "mat3": MAT3,
    "void": VOID,
}
_COMPOUND_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/"}


class _Parser(object):
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token utilities ---------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind, value=None):
        tok = self.peek()
        if tok.kind != kind:
            return False
        return value is None or tok.value == value

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind, value=None, what=None):
        tok = self.peek()
        if not self.check(kind, value):
            wanted = what or (value if value is not None else kind)
            raise ParseError(
                "expected %s, found %r" % (wanted, tok.value), tok.line, tok.col
            )
        return self.advance()

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- declarations ------------------------------------------------------

    def parse_definitions(self):
        functions = []
        while not self.check("eof"):
            functions.append(self.parse_function())
        return functions

    def parse_program(self):
        functions = self.parse_definitions()
        if not functions:
            self.error("empty program")
        return A.Program(functions)

    def parse_type(self):
        tok = self.expect("keyword", what="type name")
        if tok.value not in _TYPE_NAMES:
            raise ParseError("unknown type %r" % tok.value, tok.line, tok.col)
        return _TYPE_NAMES[tok.value]

    def parse_function(self):
        ret_type = self.parse_type()
        name_tok = self.expect("ident", what="function name")
        self.expect("op", "(")
        params = []
        if not self.check("op", ")"):
            while True:
                pty = self.parse_type()
                if pty is VOID:
                    self.error("parameters may not have type void")
                pname = self.expect("ident", what="parameter name")
                params.append(A.Param(pty, pname.value, line=pname.line))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        body = self.parse_block()
        return A.FunctionDef(name_tok.value, params, ret_type, body, line=name_tok.line)

    # -- statements ----------------------------------------------------------

    def parse_block(self):
        open_tok = self.expect("op", "{")
        stmts = []
        while not self.check("op", "}"):
            if self.check("eof"):
                self.error("unterminated block")
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return A.Block(stmts, line=open_tok.line)

    def _is_type_keyword(self):
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in _TYPE_NAMES

    def parse_stmt(self):
        tok = self.peek()
        if self.check("op", "{"):
            return self.parse_block()
        if self._is_type_keyword():
            return self.parse_decl()
        if self.check("keyword", "if"):
            return self.parse_if()
        if self.check("keyword", "while"):
            return self.parse_while()
        if self.check("keyword", "for"):
            return self.parse_for()
        if self.check("keyword", "return"):
            return self.parse_return()
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "op" and (nxt.value == "=" or nxt.value in _COMPOUND_ASSIGN):
                return self.parse_assign()
            if nxt.kind == "op" and nxt.value == "(":
                call = self.parse_expr()
                semi = self.expect("op", ";")
                if not isinstance(call, A.Call):
                    raise ParseError(
                        "only calls may be used as expression statements",
                        semi.line,
                        semi.col,
                    )
                return A.ExprStmt(call, line=tok.line)
        self.error("expected a statement, found %r" % tok.value)

    def parse_decl(self):
        ty = self.parse_type()
        if ty is VOID:
            self.error("variables may not have type void")
        name_tok = self.expect("ident", what="variable name")
        init = None
        if self.accept("op", "="):
            init = self.parse_expr()
        self.expect("op", ";")
        return A.VarDecl(ty, name_tok.value, init, line=name_tok.line)

    def parse_assign(self):
        name_tok = self.expect("ident")
        op_tok = self.advance()
        expr = self.parse_expr()
        self.expect("op", ";")
        if op_tok.value in _COMPOUND_ASSIGN:
            expr = A.BinOp(
                _COMPOUND_ASSIGN[op_tok.value],
                A.VarRef(name_tok.value, line=name_tok.line),
                expr,
                line=op_tok.line,
            )
        return A.Assign(name_tok.value, expr, line=name_tok.line)

    def parse_if(self):
        tok = self.expect("keyword", "if")
        self.expect("op", "(")
        pred = self.parse_expr()
        self.expect("op", ")")
        then = self._stmt_as_block(self.parse_stmt())
        else_ = None
        if self.accept("keyword", "else"):
            else_ = self._stmt_as_block(self.parse_stmt())
        return A.If(pred, then, else_, line=tok.line)

    def parse_while(self):
        tok = self.expect("keyword", "while")
        self.expect("op", "(")
        pred = self.parse_expr()
        self.expect("op", ")")
        body = self._stmt_as_block(self.parse_stmt())
        return A.While(pred, body, line=tok.line)

    def parse_for(self):
        """Desugar ``for (init; cond; step) body`` into
        ``{ init; while (cond) { body; step; } }``."""
        tok = self.expect("keyword", "for")
        self.expect("op", "(")
        init = None
        if not self.check("op", ";"):
            init = self._parse_simple_for_clause()
        self.expect("op", ";")
        cond = A.IntLit(1, line=tok.line)
        if not self.check("op", ";"):
            cond = self.parse_expr()
        self.expect("op", ";")
        step = None
        if not self.check("op", ")"):
            step = self._parse_simple_for_clause(terminated=False)
        self.expect("op", ")")
        body = self._stmt_as_block(self.parse_stmt())
        loop_body = list(body.stmts)
        if step is not None:
            loop_body.append(step)
        loop = A.While(cond, A.Block(loop_body, line=tok.line), line=tok.line)
        outer = [init] if init is not None else []
        outer.append(loop)
        return A.Block(outer, line=tok.line)

    def _parse_simple_for_clause(self, terminated=True):
        """A declaration or assignment without its trailing semicolon."""
        if self._is_type_keyword():
            ty = self.parse_type()
            name_tok = self.expect("ident")
            self.expect("op", "=")
            init = self.parse_expr()
            if terminated is False:
                self.error("declarations are not allowed in the step clause")
            return A.VarDecl(ty, name_tok.value, init, line=name_tok.line)
        name_tok = self.expect("ident", what="assignment")
        op_tok = self.advance()
        if op_tok.value != "=" and op_tok.value not in _COMPOUND_ASSIGN:
            raise ParseError("expected assignment", op_tok.line, op_tok.col)
        expr = self.parse_expr()
        if op_tok.value in _COMPOUND_ASSIGN:
            expr = A.BinOp(
                _COMPOUND_ASSIGN[op_tok.value],
                A.VarRef(name_tok.value, line=name_tok.line),
                expr,
                line=op_tok.line,
            )
        return A.Assign(name_tok.value, expr, line=name_tok.line)

    def parse_return(self):
        tok = self.expect("keyword", "return")
        expr = None
        if not self.check("op", ";"):
            expr = self.parse_expr()
        self.expect("op", ";")
        return A.Return(expr, line=tok.line)

    @staticmethod
    def _stmt_as_block(stmt):
        if isinstance(stmt, A.Block):
            return stmt
        return A.Block([stmt], line=stmt.line)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self.parse_ternary()

    def parse_ternary(self):
        cond = self.parse_binary(0)
        if self.accept("op", "?"):
            then = self.parse_expr()
            self.expect("op", ":")
            else_ = self.parse_expr()
            return A.Cond(cond, then, else_, line=cond.line)
        return cond

    def parse_binary(self, min_prec):
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.value not in PRECEDENCE:
                return left
            prec = PRECEDENCE[tok.value]
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = A.BinOp(tok.value, left, right, line=tok.line)

    def parse_unary(self):
        tok = self.peek()
        if self.check("op", "-"):
            self.advance()
            return A.UnaryOp("-", self.parse_unary(), line=tok.line)
        if self.check("op", "!"):
            self.advance()
            return A.UnaryOp("!", self.parse_unary(), line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while self.check("op", "."):
            dot = self.advance()
            field = self.expect("ident", what="component name")
            if field.value not in ("x", "y", "z"):
                raise ParseError(
                    "unknown component %r (expected x, y, or z)" % field.value,
                    field.line,
                    field.col,
                )
            expr = A.Member(expr, field.value, line=dot.line)
        return expr

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return A.IntLit(tok.value, line=tok.line)
        if tok.kind == "float":
            self.advance()
            return A.FloatLit(tok.value, line=tok.line)
        if self.accept("op", "("):
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        # ``vec3(x, y, z)`` / ``mat3(...)`` are constructor calls even
        # though their names are type keywords.
        # Cache operators, as the splitter prints them: ``cache->slotN``
        # reads, ``cache->slotN = e`` stores (always parenthesized in
        # emitted code).  Accepting them makes loader/reader source
        # round-trippable.
        if tok.kind == "ident" and tok.value == "cache" and self.peek(1).value == "->":
            self.advance()
            self.advance()
            slot_tok = self.expect("ident", what="cache slot")
            if not slot_tok.value.startswith("slot") or not slot_tok.value[4:].isdigit():
                raise ParseError(
                    "expected slotN after cache->, found %r" % slot_tok.value,
                    slot_tok.line,
                    slot_tok.col,
                )
            slot = int(slot_tok.value[4:])
            if self.accept("op", "="):
                return A.CacheStore(slot, self.parse_expr(), line=tok.line)
            return A.CacheRead(slot, line=tok.line)
        if tok.kind == "ident" or self.check("keyword", "vec3") or self.check(
            "keyword", "mat3"
        ):
            self.advance()
            if self.accept("op", "("):
                args = []
                if not self.check("op", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return A.Call(tok.value, args, line=tok.line)
            return A.VarRef(tok.value, line=tok.line)
        self.error("expected an expression, found %r" % tok.value)


def parse_program(source):
    """Parse ``source`` into a :class:`repro.lang.ast_nodes.Program`.

    Node ids are assigned; run the type checker before analysis.
    """
    program = _Parser(tokenize(source)).parse_program()
    A.number_nodes(program)
    return program


def parse_definitions(source):
    """Parse zero or more function definitions, without numbering them.

    The linker (:mod:`repro.lang.link`) numbers them after the library
    they are linked with."""
    return _Parser(tokenize(source)).parse_definitions()


def parse_function(source):
    """Parse a source text containing a single function definition."""
    program = parse_program(source)
    if len(program.functions) != 1:
        raise ParseError("expected exactly one function definition")
    return program.functions[0]


def parse_expression(source):
    """Parse a standalone expression (used heavily by tests)."""
    tokens = tokenize(source)
    parser = _Parser(tokens)
    expr = parser.parse_expr()
    parser.expect("eof", what="end of input")
    A.number_nodes(expr)
    return expr
