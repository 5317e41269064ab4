//go:build race

package node

import "testing"

// TestRetirePoisonsRow keeps a row past its retire on purpose and checks
// that it now reads as garbage: under -race, code that holds on to a
// retired row acts on no class and on peers no cluster has, instead of on
// state that survives until the row is opened again.
func TestRetirePoisonsRow(t *testing.T) {
	n := &Node{id: 7, pubs: repairTable{rows: make(map[uint32]*pubState)}}
	st := n.pubs.open()
	st.subs = append(st.subs, 1, 2, 3)
	st.accepted = append(st.accepted, 4)
	st.body = append(st.body, "kept"...)
	st.payload = st.body
	st.dep = append(st.dep, depSub{sub: 2})
	n.pubs.rows[5] = st
	n.retire(5, st)
	if st.class != poisonClass {
		t.Errorf("a retired row reads class %d, want the pattern", st.class)
	}
	for _, l := range [][]int32{st.subs, st.accepted} {
		for _, p := range l {
			if p != poisonPeer {
				t.Fatalf("a retired row names peers %v and %v, want the pattern", st.subs, st.accepted)
			}
		}
	}
	for _, b := range st.payload {
		if b != 0xEE {
			t.Fatalf("a retired row's payload reads %q, want the pattern", st.payload)
		}
	}
	if ds := st.depOf(2); ds != nil {
		t.Errorf("a retired row still holds subscriber 2's deposit state: %+v", ds)
	}
	if again := n.pubs.open(); again != st || len(again.subs) != 0 || again.class != rowFeed || again.depOf(poisonPeer) != nil {
		t.Errorf("the row opened next is not the retired one, emptied: %+v", again)
	}
}
