//go:build race

package node

// Race builds — what CI's -race jobs run — poison every row the repair
// engine retires: until the row is opened again it reads as no class,
// and its lists hold peers no cluster has, to their full capacity. Code
// that kept a row past retire acts on garbage a test can see instead of
// on state that happens to survive.
func init() { poisonRow = fillRow }

// poisonPeer is the peer id a poisoned row names, and poisonClass its
// class.
const (
	poisonPeer  = -0x11111112
	poisonClass = 0xEE
)

func fillRow(st *pubState) {
	st.class = poisonClass
	for _, l := range []*[]int32{&st.subs, &st.peers, &st.accepted} {
		*l = (*l)[:cap(*l)]
		for i := range *l {
			(*l)[i] = poisonPeer
		}
	}
	for _, b := range [][]byte{st.body[:cap(st.body)], st.topicB[:cap(st.topicB)]} {
		for i := range b {
			b[i] = 0xEE
		}
	}
	st.dep = st.dep[:cap(st.dep)]
	for i := range st.dep {
		st.dep[i] = depSub{sub: poisonPeer, attempt: -1}
	}
}
