//go:build amd64 && !race && !nocorolink

#include "textflag.h"

// ABIInternal call thunks for the runtime coroutine primitives, reached by
// entry PC (see coro_runtime.go for why no link-time reference is
// possible). Both targets take one pointer argument in AX and are called
// with the g register (R14) live, which an ABI0 assembly function neither
// receives nor clobbers. runtime.newcoro returns its result in AX.

// func callNewcoro(pc uintptr, f func(*coro)) *coro
TEXT ·callNewcoro(SB), NOSPLIT, $0-24
	MOVQ	f+8(FP), AX
	MOVQ	pc+0(FP), CX
	CALL	CX
	MOVQ	AX, ret+16(FP)
	RET

// func callCoroswitch(pc uintptr, c *coro)
TEXT ·callCoroswitch(SB), NOSPLIT, $0-16
	MOVQ	c+8(FP), AX
	MOVQ	pc+0(FP), CX
	CALL	CX
	RET
