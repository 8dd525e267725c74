//go:build amd64 && !race && !nocorolink

#include "textflag.h"
#include "funcdata.h"

// ABIInternal call thunks for the runtime coroutine primitives, reached by
// entry PC (see coro_runtime.go for why no link-time reference is
// possible). Both targets take one pointer argument in AX and are entered
// with the g register (R14) live, which an ABI0 assembly function neither
// receives nor clobbers. runtime.newcoro returns its result in AX.
//
// An ABIInternal callee may spill its register argument into the word just
// above its return address, a slot its caller reserves. callNewcoro keeps
// that word in its own 8-byte frame; with no frame of its own, the spill
// would land on the saved frame pointer and newcoro's return would hand the
// Go caller f in BP. The word needs no pointer map: f stays live in the
// argument frame, which the Go declaration describes.

// func callNewcoro(pc uintptr, f func(*coro)) *coro
TEXT ·callNewcoro(SB), NOSPLIT, $8-24
	NO_LOCAL_POINTERS
	MOVQ	f+8(FP), AX
	MOVQ	pc+0(FP), CX
	CALL	CX
	MOVQ	AX, ret+16(FP)
	RET

// callCoroswitch tail-jumps: with no frame (NOFRAME, $0, no CALL), the
// target is entered with the Go caller's return address on top of the
// stack, exactly as if the caller had called it directly. The switch
// parks the goroutine in the target's frame, which sits directly on the Go
// caller's, and the resumed goroutine returns straight there. That depth
// is the point: the runtime parks through mcall and resumes through gogo,
// which leaves the CPU's return-stack predictor one entry off, so every
// return on the resumed goroutine's way back mispredicts; a thunk frame
// was one more. The target's argument spill slot (see above) is the word
// holding pc, already read. Once the jump is taken no frame describes
// c+8(FP), so the caller must keep c reachable elsewhere (the scheduler
// holds it in Context.parkedIn or Machine.dispParked).
//
// func callCoroswitch(pc uintptr, c *coro)
TEXT ·callCoroswitch(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ	c+8(FP), AX
	MOVQ	pc+0(FP), CX
	JMP	CX
